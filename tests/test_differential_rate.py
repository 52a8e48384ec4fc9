"""Differential suite for source-rate adaptivity.

Two contracts:

* **Answers never change** — over seeded random workloads whose sources all
  sit behind collapsing rate-promising links, corrective execution with
  ``rate_adaptive=True`` must produce the identical result multiset as the
  static configuration and the brute-force oracle, no matter which read
  demotions or rate-aware plan switches the policy chose (solo and served).
* **Inert without promises** — on workloads whose catalog carries no
  ``promised_rate``, enabling ``rate_adaptive`` must be a bit-identical
  no-op: same multisets, same work counters, same simulated seconds, same
  phase counts.  The policy only ever acts on a broken promise.
"""

from __future__ import annotations

import pytest

from differential import (
    assert_rate_differential_case,
    rate_collapse_setup,
    run_rate_differential_case,
    run_solo_corrective,
)
from helpers import reference_spja
from collections import Counter

from workload_generator import generate_workload

RATE_SEEDS = tuple(range(900, 925))
NO_PROMISE_SEEDS = tuple(range(930, 942))

_CASE_CACHE: dict[int, object] = {}


def _case(seed: int):
    if seed not in _CASE_CACHE:
        _CASE_CACHE[seed] = run_rate_differential_case(seed)
    return _CASE_CACHE[seed]


@pytest.mark.parametrize("seed", RATE_SEEDS)
def test_rate_adaptive_answers_identical(seed):
    assert_rate_differential_case(_case(seed))


def test_rate_population_exercises_the_policy():
    """Meta-test: the seed population actually triggers rate actions.

    If a refactor silently stopped the collapse detector from firing, every
    per-seed assertion above would still pass (static == adaptive == oracle
    holds trivially when the policy never acts); this guard fails instead.
    """
    cases = [_case(seed) for seed in RATE_SEEDS]
    switched = [case for case in cases if case.rate_switches > 0]
    demoted = [case for case in cases if case.reprioritizations > 0]
    multi_phase = [case for case in cases if case.adaptive.phases >= 2]
    assert len(demoted) >= 5, "collapse demotions fired on too few seeds"
    assert len(switched) >= 3, "rate-aware plan switches fired on too few seeds"
    assert len(multi_phase) >= 3


@pytest.mark.parametrize("seed", RATE_SEEDS[:6])
def test_rate_adaptive_tuple_mode_answers_identical(seed):
    result = run_rate_differential_case(seed, batch_size=None)
    assert_rate_differential_case(result)


@pytest.mark.parametrize("seed", NO_PROMISE_SEEDS)
def test_rate_adaptive_is_bit_identical_without_promises(seed):
    """No promise, no action: the flag must not perturb anything at all."""
    workload = generate_workload(seed)
    _, static = run_solo_corrective(workload, batch_size=64)
    _, adaptive = run_solo_corrective(workload, batch_size=64, rate_adaptive=True)
    assert adaptive.multiset == static.multiset
    assert adaptive.metrics == static.metrics, (
        f"seed {seed}: rate_adaptive perturbed work counters without any "
        f"rate promise in the catalog"
    )
    assert adaptive.simulated_seconds == static.simulated_seconds
    assert adaptive.phases == static.phases


@pytest.mark.parametrize("policy", ["round_robin", "shortest_remaining_cost"])
def test_rate_adaptive_serving_answers_identical(policy):
    """Served rate-adaptive sessions still answer exactly like the oracle."""
    seeds = (901, 905, 910)
    workloads = [
        generate_workload(seed, name_prefix=f"w{index}_")
        for index, seed in enumerate(seeds)
    ]
    references = [
        Counter(reference_spja(workload.query, workload.relations))
        for workload in workloads
    ]
    # Shared pool: every workload's sources behind collapsing links, with
    # the promises registered in one shared catalog.
    from repro.relational.catalog import Catalog
    from repro.serving.server import QueryServer
    from differential import POLL_STEP_LIMIT, POLLING_INTERVAL, _bad_initial_tree

    catalog = Catalog()
    sources: dict[str, object] = {}
    for workload in workloads:
        sub_catalog, sub_sources = rate_collapse_setup(workload)
        for name in workload.relations:
            catalog.register(
                name, sub_catalog.schema(name), sub_catalog.statistics(name)
            )
        sources.update(sub_sources)
    server = QueryServer(
        catalog,
        sources,
        policy=policy,
        batch_size=64,
        engine_mode="interpreted",
        quantum_tuples=POLL_STEP_LIMIT,
        polling_interval_seconds=POLLING_INTERVAL,
        rate_adaptive=True,
    )
    for workload in workloads:
        server.submit(
            workload.query,
            initial_tree=_bad_initial_tree(workload),
            label=workload.query.name,
        )
    report = server.run()
    assert len(report.served) == len(workloads)
    for served, workload, reference in zip(report.served, workloads, references):
        assert served.query_name == workload.query.name
        from differential import _canonical_multiset, _canonical_names

        assert (
            _canonical_multiset(
                served.rows,
                served.report.schema.names,
                _canonical_names(workload),
            )
            == reference
        ), (
            f"policy {policy!r}: served rate-adaptive query "
            f"{workload.query.name} disagrees with the oracle"
        )
