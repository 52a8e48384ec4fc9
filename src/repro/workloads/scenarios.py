"""Seeded scenarios in which each opt-in adaptivity knob wins — or rightly declines.

Three builders, one per knob of :class:`~repro.core.corrective.
CorrectiveQueryProcessor`, each a pure function of its arguments that
returns the query, catalog and sources of one scenario and nothing else; the
caller builds the processor twice (knob off, knob on) over identical data and
compares the two reports:

* :func:`order_scenario` — ``order_adaptive``: a two-source equi-join over
  sorted / near-sorted / unordered / lying-promise source mixes;
* :func:`rate_scenario` — ``rate_adaptive``: a three-source join whose remote
  source misbehaves behind a promised rate;
* :func:`failover_scenario` — ``failover_adaptive``: the same join shape with
  a primary that collapses for good and a healthy mirror.

``tests/test_adaptive_scenarios.py`` holds the bounds each scenario must meet
on simulated seconds; the benchmark can import the same scenarios as
workloads.  Everything draws from an explicit ``random.Random`` derived from
the seed and the scenario's *position* (str hashes are randomized per
process).
"""

from __future__ import annotations

import random

from repro.engine.cost import CostModel
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.expressions import JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.network import ConstantRateNetworkModel, PhasedRateNetworkModel
from repro.sources.remote import RemoteSource

# ---------------------------------------------------------------------------
# order_adaptive: hash-only vs order-adaptive join processing
# ---------------------------------------------------------------------------

#: scenario → (sort the data?, perturb fraction, promise sorted_on?)
ORDER_SCENARIOS = {
    "sorted_promised": (True, 0.0, True),
    "sorted_detected": (True, 0.0, False),
    "near_sorted": (True, 0.02, False),
    "unordered": (False, 0.0, False),
    "lying_promise": (False, 0.0, True),
}

#: re-optimization poll interval for the order scenarios — early enough that
#: runtime order detection can still switch strategies while most of the
#: input remains
ORDER_POLLING_INTERVAL = 0.01
ORDER_POLL_STEP_LIMIT = 200


def _order_rows(n: int, rng: random.Random, key_sorted: bool, perturb: float, fk: bool):
    if fk:
        rows = [(rng.randrange(n), rng.randrange(1000)) for _ in range(n)]
    else:
        rows = [(i, rng.randrange(1000)) for i in range(n)]
    if key_sorted:
        rows.sort(key=lambda row: row[0])
        if perturb > 0:
            for _ in range(max(1, int(n * perturb))):
                i = rng.randrange(n - 1)
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
    else:
        rng.shuffle(rows)
    return rows


def order_scenario(name: str, n: int, seed: int):
    """``(query, catalog, sources)``: ``r ⋈ s`` on ``n`` tuples per source.

    Fully sorted with and without a catalog promise, near-sorted (2% adjacent
    perturbation), fully unordered, and a *lying promise* (shuffled data
    behind a sorted-on claim).  On sorted inputs the order-adaptive system
    selects — or, without a promise, switches to mid-flight — the merge
    strategy and beats hash-only on simulated seconds and peak state; on
    unordered inputs it keeps hash; a lying promise costs the merge node's
    late-tuple fallback, bounded and still correct.
    """
    key_sorted, perturb, promised = ORDER_SCENARIOS[name]
    rng = random.Random(seed * 31 + list(ORDER_SCENARIOS).index(name))
    r_schema = Schema.from_names(["r_pk", "r_val"], relation="r")
    s_schema = Schema.from_names(["s_fk", "s_val"], relation="s")
    sources = {
        "r": Relation("r", r_schema, _order_rows(n, rng, key_sorted, perturb, fk=False)),
        "s": Relation("s", s_schema, _order_rows(n, rng, key_sorted, perturb, fk=True)),
    }
    catalog = Catalog()
    domain = (0.0, float(n - 1))
    catalog.register(
        "r",
        r_schema,
        TableStatistics(
            sorted_on=("r_pk",) if promised else (),
            attribute_ranges={"r_pk": domain},
        ),
    )
    catalog.register(
        "s",
        s_schema,
        TableStatistics(
            sorted_on=("s_fk",) if promised else (),
            attribute_ranges={"s_fk": domain},
        ),
    )
    query = SPJAQuery(
        f"order_{name}", ("r", "s"), (JoinPredicate("s", "s_fk", "r", "r_pk"),)
    )
    return query, catalog, sources


# ---------------------------------------------------------------------------
# rate_adaptive / failover_adaptive: f ⋈ l1 ⋈ l2 behind a misbehaving link
# ---------------------------------------------------------------------------

RATE_SCENARIOS = ("slow", "bursty", "flaky")

#: fan-out of the multiplicative ``f ⋈ l1`` join
FANOUT = 21

#: how hard it is for the *plain* re-optimizer to switch in the rate
#: scenarios; the two candidate plans are within ~20% of each other on total
#: work, so with this threshold the work-only model keeps the initial plan
#: (correctly, by its own lights) in both the static and the adaptive
#: configuration
SWITCH_THRESHOLD = 0.7

#: Poll early relative to the workload's timescale (a fraction of
#: ``work_floor``): rate collapse is detectable within the first few percent
#: of the run, and an early switch keeps the abandoned phase's partitions
#: (and hence the stitch-up) small.
POLLING_FRACTION = 0.03

#: ``failover_stall_seconds`` of the failover scenario, as a fraction of
#: ``work_floor``
FAILOVER_STALL_FRACTION = 0.02


def _three_way_join(n: int, rng: random.Random, query_name: str, cost_model: CostModel):
    """``(query, catalog, sources, work_floor, promised)`` with ``f`` still local.

    The caller puts ``sources["f"]`` behind its link; ``promised`` is the
    rate the catalog already promises for it.
    """
    n_f = max(n // 8, 64)
    domain = max(n // FANOUT, 1)

    f_schema = Schema.from_names(["f_k", "f_val"], relation="f")
    l1_schema = Schema.from_names(["l1_k", "l1_pk", "l1_val"], relation="l1")
    l2_schema = Schema.from_names(["l2_fk", "l2_val"], relation="l2")
    f_rows = [(rng.randrange(domain), rng.randrange(1000)) for _ in range(n_f)]
    l1_rows = [(rng.randrange(domain), i, rng.randrange(1000)) for i in range(n)]
    fks = list(range(n))
    rng.shuffle(fks)
    l2_rows = [(fk, rng.randrange(1000)) for fk in fks]

    # Timescale anchor: the gating plan's maskable work is ~9.4 units per
    # local tuple (reads + l1⋈l2 inserts/probes/copies + probe side of the
    # top node), so the arrival schedules are expressed as fractions of
    # that — a scenario keeps its shape at any ``n``.
    work_floor = 9.4 * n * cost_model.seconds_per_unit
    promised = n_f / (0.1 * work_floor)

    sources = {
        "f": Relation("f", f_schema, f_rows),
        "l1": Relation("l1", l1_schema, l1_rows),
        "l2": Relation("l2", l2_schema, l2_rows),
    }
    catalog = Catalog()
    catalog.register(
        "f", f_schema, TableStatistics(cardinality=n_f, promised_rate=promised)
    )
    catalog.register("l1", l1_schema, TableStatistics(cardinality=n))
    catalog.register("l2", l2_schema, TableStatistics(cardinality=n))
    query = SPJAQuery(
        query_name,
        ("f", "l1", "l2"),
        (
            JoinPredicate("f", "f_k", "l1", "l1_k"),
            JoinPredicate("l1", "l1_pk", "l2", "l2_fk"),
        ),
    )
    return query, catalog, sources, work_floor, promised


def rate_scenario(name: str, n: int, seed: int, cost_model: CostModel):
    """``(query, catalog, sources, initial_tree, work_floor)`` for one pathology.

    A remote source ``f`` behind a rate-promising but misbehaving link, and
    two local relations ``l1``, ``l2``:

    * ``slow`` — ``f`` trickles at 2% of its promised rate for roughly the
      duration of the local work, then recovers and delivers the backlog;
    * ``bursty`` — ``f`` alternates silent outages with short full-rate bursts;
    * ``flaky`` — ``f`` starts at its promised rate, goes silent mid-stream,
      then recovers.

    The initial plan joins ``f`` first — the natural choice when the promise
    is believed, and a fine plan when ``f`` actually delivers.  ``f ⋈ l1`` is
    multiplicative (each ``f`` tuple fans out), so that plan funnels a large
    share of the total work *through* ``f``'s tuples: work that cannot start
    until they arrive.  The alternative plan joins ``l1 ⋈ l2`` first and
    gates ``f`` at the top; its total work is nearly identical (within the
    plain re-optimizer's switch threshold, so the work-only model rightly
    never switches), but almost all of it is *maskable* — chargeable while
    ``f`` stalls.  Only the source-rate policy sees that distinction: it
    detects the collapse against the catalog's ``promised_rate``, demotes
    ``f`` in the read schedule, and switches to the gating plan, converting
    post-arrival work into overlapped work.  On ``flaky`` the collapse only
    becomes observable after a healthy start has let substantial local state
    accumulate, so the policy's stitch-up-aware model declines to switch.

    Run it with ``switch_threshold=SWITCH_THRESHOLD`` and
    ``polling_interval_seconds=POLLING_FRACTION * work_floor``.
    """
    rng = random.Random(seed * 31 + RATE_SCENARIOS.index(name))
    query, catalog, sources, work_floor, promised = _three_way_join(
        n, rng, f"rate_{name}", cost_model
    )
    if name == "slow":
        phases = [(1.0 * work_floor, 0.02 * promised)]
    elif name == "bursty":
        phases = [(0.22 * work_floor, 0.0), (0.03 * work_floor, promised)] * 4
    else:  # flaky: healthy start, long mid-stream outage, recovery
        phases = [(0.04 * work_floor, promised), (0.9 * work_floor, 0.0)]
    network = PhasedRateNetworkModel(
        phases, tail_rate=promised, latency=0.01 * work_floor
    )
    sources["f"] = RemoteSource(sources["f"], network, promised_rate=promised)
    # The promise-trusting plan: join the "fast" remote source first.
    initial_tree = JoinTree.join(
        JoinTree.join(JoinTree.leaf("f"), JoinTree.leaf("l1")), JoinTree.leaf("l2")
    )
    return query, catalog, sources, initial_tree, work_floor


def failover_scenario(n: int, seed: int, cost_model: CostModel):
    """``(query, catalog, sources, work_floor)``: ``f`` dies, its mirror does not.

    The three-way join of :func:`rate_scenario`, whose remote source ``f``
    starts at its promised rate and then collapses into a sustained deep
    outage; a healthy mirror is registered for it.  With
    ``failover_adaptive=True`` (and ``failover_stall_seconds=
    FAILOVER_STALL_FRACTION * work_floor``, polling as in the rate scenarios)
    the processor must detect the outage, re-point the running cursor at the
    mirror's resumed stream — partial primary read stitched to the mirror's
    remainder — and finish decisively faster than its static twin.
    """
    rng = random.Random(seed * 37 + 1)
    query, catalog, sources, work_floor, promised = _three_way_join(
        n, rng, "resilience_failover", cost_model
    )
    primary = RemoteSource(
        sources["f"],
        PhasedRateNetworkModel(
            # Healthy start, then a deep sustained trickle: without a
            # failover the remainder arrives ~1000x slower than promised.
            [(0.04 * work_floor, promised), (1000.0 * work_floor, 0.001 * promised)],
            tail_rate=promised,
            latency=0.01 * work_floor,
        ),
        promised_rate=promised,
    )
    mirror = RemoteSource(
        sources["f"],
        ConstantRateNetworkModel(promised, latency=0.01 * work_floor),
        name="f_mirror",
        promised_rate=promised,
    )
    primary.register_mirror(mirror)
    sources["f"] = primary
    return query, catalog, sources, work_floor
