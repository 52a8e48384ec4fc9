"""The differential harness: one case table, one runner, one check.

The corrective processor may switch plans, stitch up partial results, fail
over to a mirror or change join algorithm mid-query; none of it may change
the answer.  Every row of ``test_differential.CASES`` is a seed plus one
value per axis:

* ``kernel`` — :data:`KERNELS`: the clock oracle (``"oracle"``: the paper's
  read rule one tuple at a time, :func:`helpers.tuple_at_a_time`, on the
  interpreted kernel), the interpreted kernel at the default step, the
  default configuration (``engine_mode=None, batch_size=None``: the compiled
  chains), and the compiled chains at batch sizes 1, 7, 64 and 1024;
* ``sources`` — :data:`SOURCES`: local relations, the generator's bursty
  remote links, links collapsing below a promised rate, an outage with a
  healthy mirror, sorted and near-sorted relations with and without sort
  promises, and CSV/SQLite/HTTP backends behind faulted resilience
  envelopes (each with a clean mirror envelope);
* ``policies`` — :data:`POLICIES`: none, rate, failover, order, or all three;
* ``serving`` — :data:`SERVING`: solo, one inline shard, 2 and 4 forked
  workers, a spawned worker, or one query partitioned 2 or 4 ways next to a
  plain session;
* ``order`` — forward or reversed submission, for served rows only.

:func:`check_case` runs a row and asserts, for every workload it serves:

1. its answer equals :func:`helpers.reference_spja`;
2. its rows, every :class:`~repro.engine.cost.ExecutionMetrics` counter,
   ``repr(simulated_seconds)`` and phase count equal those of the oracle's
   solo run over the same sources and policies — and so do the default
   configuration's, which every row runs.  A partitioned query compares its
   merged answer;
3. with a policy on, its answer equals the default configuration's run
   with the policies off, and where no policy's trigger is present (no
   promised rate, no mirror, no order) the two runs are bit-identical.

Rows over real backends check answers only (check 1), the contract the
fault-injection suite has always held them to.

All aggregate input values are integers, so grouped sums compare exactly
whatever order a kernel folds them in.
"""

from __future__ import annotations

import random
import sqlite3
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import NamedTuple

from helpers import reference_spja, tuple_at_a_time

from repro.core.corrective import CorrectiveQueryProcessor
from repro.io import (
    CSVFileTransport,
    DBAPITransport,
    FaultPlan,
    FixtureServer,
    HTTPTransport,
    InjectedTransport,
    ResilientSource,
)
from repro.io.backends import write_csv, write_sqlite
from repro.optimizer.plans import JoinTree
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.relation import Relation
from repro.serving.partition import choose_partition_edge
from repro.serving.sharded import ShardedQueryServer
from repro.sources.network import PhasedRateNetworkModel
from repro.sources.remote import RemoteSource
from workload_generator import DifferentialWorkload, generate_workload

#: Re-optimization poll interval: small enough that even the tiny generated
#: workloads are polled several times, so plans switch on many seeds.
POLLING_INTERVAL = 0.002

#: Tuples between clock checks (a served session's quantum).
POLL_STEP_LIMIT = 40

#: The orders a served workload mix is submitted in.  Reversing it changes
#: the shard each session lands in and the sessions that run before it:
#: neither may show in any served answer.
SUBMISSION_ORDERS = ("forward", "reversed")

#: kernel -> its ``ProcessorOptions`` fields.  The oracle additionally runs
#: under :func:`helpers.tuple_at_a_time`; only it and ``"interpreted"`` pass
#: ``engine_mode="interpreted"``.
KERNELS = {
    "oracle": {"engine_mode": "interpreted"},
    "interpreted": {"engine_mode": "interpreted"},
    "default": {},
    **{
        f"compiled{size}": {"engine_mode": "compiled", "batch_size": size}
        for size in (1, 7, 64, 1024)
    },
}

#: policies -> its ``ProcessorOptions`` fields (every run, policy or not,
#: counts a poll stalled past 5 ms toward an outage).
POLICIES = {
    "none": {},
    "rate": {"rate_adaptive": True},
    "failover": {"failover_adaptive": True},
    "order": {"order_adaptive": True},
    "all": {"rate_adaptive": True, "failover_adaptive": True, "order_adaptive": True},
}

#: serving -> (workers, start method, workloads served).  A ``partN`` row
#: submits its first workload partitioned N ways and the second as a plain
#: session.
SERVING = {
    "solo": None,
    "inline1": (1, "inline", 2),
    "fork2": (2, "fork", 2),
    "fork4": (4, "fork", 4),
    "spawn": (1, "spawn", 2),
    "part2": (2, "inline", 2),
    "part4": (2, "inline", 2),
}

#: Real backends: their rows compare answers only.
IO_SOURCES = ("csv", "sqlite", "http")
ORDERED_SOURCES = ("sorted", "sorted_promised", "perturbed", "perturbed_promised")
#: Promised orders start from the optimizer's plan, which may choose merge
#: joins up front; every other row from a deliberately bad one.
PROMISED_ORDERS = ("sorted_promised", "perturbed_promised")
SOURCES = ("local", "bursty", "collapsing", "outage", *ORDERED_SOURCES, *IO_SOURCES)

#: policy -> the sources on which it may act: a promised rate, a mirror, an
#: order.  Elsewhere turning it on must change nothing at all.
TRIGGERS = {
    "rate": {"collapsing", "outage"},
    "failover": {"outage", *IO_SOURCES},
    "order": set(ORDERED_SOURCES),
}

PROMISED_RATE = 4000.0


class Case(NamedTuple):
    """One row of the table; its pytest id is its fields joined by ``-``
    (a solo row has no order)."""

    seed: int
    kernel: str
    sources: str
    policies: str
    serving: str
    order: str = "-"

    @property
    def id(self) -> str:
        return "-".join(str(value) for value in self if value != "-")


def active_policies(policies: str) -> tuple[str, ...]:
    """The policies a ``policies`` value turns on."""
    return {"none": (), "all": ("rate", "failover", "order")}.get(policies, (policies,))


def triggered(sources: str, policies: str) -> bool:
    """Whether any policy ``policies`` turns on may act on ``sources``."""
    return any(sources in TRIGGERS[policy] for policy in active_policies(policies))


def case_workloads(case: Case) -> list[DifferentialWorkload]:
    """The workloads a row serves: its seed alone, or ``seed + i`` for the
    ``i``-th of a served mix, relation names prefixed ``w<i>_``."""
    if case.serving == "solo":
        return [_workload(case.seed, "")]
    return [
        _workload(case.seed + index, f"w{index}_")
        for index in range(SERVING[case.serving][2])
    ]


_workload = lru_cache(maxsize=None)(generate_workload)


# -- sources -------------------------------------------------------------------


def bad_initial_tree(workload: DifferentialWorkload) -> JoinTree:
    """A deliberately poor left-deep order: largest relations first (kept
    connected), so the corrective processor has something worth switching
    away from."""
    query = workload.query
    order = sorted(query.relations, key=lambda name: -len(workload.relations[name]))
    chosen = [order[0]]
    remaining = order[1:]
    while remaining:
        for name in list(remaining):
            if query.predicates_between(frozenset(chosen), frozenset((name,))):
                chosen.append(name)
                remaining.remove(name)
                break
        else:  # pragma: no cover - generated join graphs are connected
            chosen.extend(remaining)
            break
    return JoinTree.left_deep(chosen)


def order_workload_variant(
    workload: DifferentialWorkload, variant: str
) -> tuple[DifferentialWorkload, dict[str, str]]:
    """A sorted (``"sorted"``) or near-sorted (``"perturbed"``: ~5% of
    adjacent pairs swapped, within the order detectors' tolerance) copy of
    a workload, each relation ordered on its foreign key if it has one,
    else its primary key.  Returns it with the sort attribute per relation;
    row multisets are unchanged."""
    rng = random.Random(workload.seed * 7919 + 13)
    relations: dict[str, Relation] = {}
    sort_attrs: dict[str, str] = {}
    for name, relation in workload.relations.items():
        names = relation.schema.names
        attr = next((a for a in names if a.endswith("_fk")), names[0])
        position = relation.schema.position(attr)
        rows = sorted(relation.rows, key=lambda row: row[position])
        if variant == "perturbed" and len(rows) > 3:
            for _ in range(max(1, len(rows) // 20)):
                i = rng.randrange(len(rows) - 1)
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
        relations[name] = Relation(name, relation.schema, rows)
        sort_attrs[name] = attr
    return replace(workload, relations=relations), sort_attrs


def order_catalog(
    workload: DifferentialWorkload, sort_attrs: dict[str, str], with_promises: bool
) -> Catalog:
    """Catalog for an ordered workload, optionally carrying sort promises."""
    catalog = Catalog()
    for name, relation in workload.relations.items():
        statistics = (
            TableStatistics(sorted_on=(sort_attrs[name],)) if with_promises else None
        )
        catalog.register(name, relation.schema, statistics)
    return catalog


def rate_collapse_setup(workload: DifferentialWorkload) -> tuple[Catalog, dict]:
    """Every source behind a rate-promising link that delivers a 2% trickle,
    then recovers: the source-rate policy's collapse detector fires on most
    seeds."""
    catalog, sources = Catalog(), {}
    for index, (name, relation) in enumerate(workload.relations.items()):
        network = PhasedRateNetworkModel(
            [(0.004 + 0.002 * index, 0.02 * PROMISED_RATE)],
            tail_rate=PROMISED_RATE,
            latency=0.0005,
        )
        sources[name] = RemoteSource(relation, network, promised_rate=PROMISED_RATE)
        catalog.register(
            name, relation.schema, TableStatistics(promised_rate=PROMISED_RATE)
        )
    return catalog, sources


def mirror_outage_setup(workload: DifferentialWorkload) -> tuple[Catalog, dict]:
    """Every source: a healthy opening burst, then a sustained outage (0.5%
    of its promised rate), with a healthy mirror registered on it."""
    catalog, sources = Catalog(), {}
    for index, (name, relation) in enumerate(workload.relations.items()):
        outage = PhasedRateNetworkModel(
            [(0.003 + 0.001 * index, PROMISED_RATE), (30.0, 0.005 * PROMISED_RATE)],
            tail_rate=PROMISED_RATE,
            latency=0.0005,
        )
        healthy = PhasedRateNetworkModel(
            [(0.001, PROMISED_RATE)], tail_rate=PROMISED_RATE, latency=0.0005
        )
        primary = RemoteSource(relation, outage, promised_rate=PROMISED_RATE)
        primary.register_mirror(
            RemoteSource(
                relation, healthy, name=f"{name}_mirror", promised_rate=PROMISED_RATE
            )
        )
        sources[name] = primary
        catalog.register(
            name, relation.schema, TableStatistics(promised_rate=PROMISED_RATE)
        )
    return catalog, sources


def fault_plan(seed: int, index: int, row_count: int) -> FaultPlan:
    """The seeded fault plan of relation ``index`` of workload ``seed``."""
    return FaultPlan.seeded(seed * 1009 + index, row_count)


class IoFabric:
    """Where real-backend rows put their files and HTTP endpoints: one
    scratch directory and, once an HTTP row asks, one fixture server.  Every
    build registers fresh names, so each run replays its fault plans from
    the start."""

    def __init__(self, directory) -> None:
        self.directory = directory
        self.builds = 0
        self.server: FixtureServer | None = None

    def close(self) -> None:
        if self.server is not None:
            self.server.close()

    def transports(self, backend: str, name: str, relation: Relation, plan):
        """(faulted primary transport, clean mirror transport)."""
        key = f"{name}.{self.builds}"
        if backend == "http":
            if self.server is None:
                self.server = FixtureServer().start()
            return (
                HTTPTransport(name, self.server.add_relation(key, relation, plan), relation.schema),
                HTTPTransport(name, self.server.add_relation(f"{key}.m", relation), relation.schema),
            )
        if backend == "csv":
            path = str(self.directory / f"{key}.csv")
            write_csv(path, relation)
            make = partial(CSVFileTransport, name, path, relation.schema)
        else:
            path = str(self.directory / f"{key}.db")
            text = write_sqlite(path, relation)
            make = partial(
                DBAPITransport, name, partial(sqlite3.connect, path), text, relation.schema
            )
        return InjectedTransport(make(), plan), make()

    def sources(self, backend: str, workload: DifferentialWorkload) -> dict:
        self.builds += 1
        sources = {}
        for index, (name, relation) in enumerate(workload.relations.items()):
            plan = fault_plan(workload.seed, index, len(relation.rows))
            primary, mirror = self.transports(backend, name, relation, plan)
            sources[name] = ResilientSource(primary)
            sources[name].register_mirror(ResilientSource(mirror))
        return sources


def build_sources(
    kind: str, workload: DifferentialWorkload, fabric: IoFabric | None
) -> tuple[Catalog, dict]:
    """The catalog and source pool of one ``sources`` axis value."""
    if kind == "local":
        return workload.catalog(), dict(workload.relations)
    if kind == "bursty":
        return workload.catalog(), replace(workload, remote=True).sources()
    if kind == "collapsing":
        return rate_collapse_setup(workload)
    if kind == "outage":
        return mirror_outage_setup(workload)
    if kind in ORDERED_SOURCES:
        variant, _, promised = kind.partition("_")
        ordered, sort_attrs = order_workload_variant(workload, variant)
        return order_catalog(ordered, sort_attrs, bool(promised)), dict(ordered.relations)
    assert fabric is not None, f"{kind} sources need an IoFabric"
    return workload.catalog(), fabric.sources(kind, workload)


# -- runs ----------------------------------------------------------------------


@dataclass(frozen=True)
class Observed:
    """Everything the contract pins of one query's run."""

    multiset: Counter
    metrics: dict
    seconds: str
    phases: int


def canonical_multiset(rows, schema_names, workload: DifferentialWorkload) -> Counter:
    """Rows with columns permuted from ``schema_names`` (``None``: already
    canonical) into the reference layout — relation schemas in query order,
    or group attributes plus aggregate aliases: join trees lay SPJ columns
    out differently, and attribute names are unique."""
    query = workload.query
    if query.aggregation is None:
        canonical = tuple(
            name for relation in query.relations
            for name in workload.relations[relation].schema.names
        )
    else:
        canonical = tuple(query.aggregation.output_attributes)
    schema_names = canonical if schema_names is None else tuple(schema_names)
    if schema_names == canonical:
        return Counter(rows)
    positions = [schema_names.index(name) for name in canonical]
    return Counter(tuple(row[p] for p in positions) for row in rows)


def observe(report, workload: DifferentialWorkload) -> Observed:
    return Observed(
        canonical_multiset(report.rows, report.schema.names, workload),
        report.metrics.as_dict(),
        repr(report.simulated_seconds),
        report.num_phases,
    )


def processor_options(kernel: str, policies: str) -> dict:
    return dict(
        polling_interval_seconds=POLLING_INTERVAL,
        failover_stall_seconds=0.005,
        **KERNELS[kernel],
        **POLICIES[policies],
    )


def kernel_context(kernel: str):
    return tuple_at_a_time() if kernel == "oracle" else nullcontext()


def run_corrective(
    workload: DifferentialWorkload,
    catalog: Catalog,
    sources: dict,
    kernel: str = "default",
    policies: str = "none",
    optimizer_plan: bool = False,
    **options,
):
    """One solo corrective run from the bad initial tree (or, with
    ``optimizer_plan``, the optimizer's); returns the report.  ``options``
    are further ``ProcessorOptions`` fields."""
    with kernel_context(kernel):
        return CorrectiveQueryProcessor(
            catalog, sources, **{**processor_options(kernel, policies), **options}
        ).execute(
            workload.query,
            initial_tree=None if optimizer_plan else bad_initial_tree(workload),
            poll_step_limit=POLL_STEP_LIMIT,
        )


_SOLO: dict[tuple, tuple] = {}


def solo(
    workload: DifferentialWorkload,
    kernel: str,
    sources: str,
    policies: str,
    fabric: IoFabric | None = None,
):
    """One solo :func:`run_corrective` over a ``sources`` axis value,
    memoized per query and axis values: ``(report, Observed)``."""
    key = (workload.query.name, kernel, sources, policies)
    if key not in _SOLO:
        report = run_corrective(
            workload,
            *build_sources(sources, workload, fabric),
            kernel,
            policies,
            optimizer_plan=sources in PROMISED_ORDERS,
        )
        _SOLO[key] = (report, observe(report, workload))
    return _SOLO[key]


_REFERENCE: dict[str, Counter] = {}


def reference(workload: DifferentialWorkload) -> Counter:
    name = workload.query.name
    if name not in _REFERENCE:
        _REFERENCE[name] = Counter(reference_spja(workload.query, workload.relations))
    return _REFERENCE[name]


def serve(case: Case, workloads: list[DifferentialWorkload], fabric):
    """Serve a row's workloads on one server; returns the report and, per
    workload, its served ``Observed`` (a partitioned query: its merged
    multiset only)."""
    workers, start_method, _ = SERVING[case.serving]
    partitions = int(case.serving[4:]) if case.serving.startswith("part") else 0
    catalog, pool = Catalog(), {}
    for workload in workloads:
        sub_catalog, sub_pool = build_sources(case.sources, workload, fabric)
        for name in workload.relations:
            catalog.register(name, sub_catalog.schema(name), sub_catalog.statistics(name))
        pool.update(sub_pool)
    if partitions:
        # The partitioned join edge must be materialized: those two relations
        # are local, every other one is of the row's kind.
        first = workloads[0]
        edge = choose_partition_edge(first.query, first.relations)
        for name in (edge.left_relation, edge.right_relation):
            if not isinstance(pool[name], Relation):
                pool[name] = first.relations[name]
    server = ShardedQueryServer(
        catalog,
        pool,
        workers=workers,
        quantum_tuples=POLL_STEP_LIMIT,
        start_method=start_method,
        **processor_options(case.kernel, case.policies),
    )
    submissions = list(enumerate(workloads))
    for index, workload in submissions[::-1] if case.order == "reversed" else submissions:
        if partitions and index == 0:
            server.submit_partitioned(workload.query, partitions, label=workload.query.name)
        else:
            server.submit(
                workload.query,
                initial_tree=(
                    None if case.sources in PROMISED_ORDERS else bad_initial_tree(workload)
                ),
                label=workload.query.name,
            )
    with kernel_context(case.kernel):
        report = server.run()
    # The run really sharded the work: every worker ran a session.
    assert report.start_method == start_method
    assert len(report.worker_summaries) == workers
    assert all(summary.sessions >= 1 for summary in report.worker_summaries)
    by_label = {served.label: served for served in report.served}
    observed = []
    for index, workload in enumerate(workloads):
        if partitions and index == 0:
            (merged,) = report.partitioned
            assert merged.partitions == len(merged.fragments) == partitions
            if workload.query.aggregation is None:
                # co-located hash partitions split the SPJ answer exactly
                assert sum(len(f.report.rows) for f in merged.fragments) == len(merged.rows)
            observed.append(
                Observed(canonical_multiset(merged.rows, merged.schema.names, workload), {}, "", 0)
            )
        else:
            observed.append(observe(by_label[workload.query.name].report, workload))
    return report, observed


def check_case(case: Case, fabric: IoFabric | None = None):
    """Run one row and assert the three checks; returns the serving report
    (``None`` for a solo row)."""
    workloads = case_workloads(case)
    io = case.sources in IO_SOURCES
    if case.serving == "solo":
        report = None
        rows = [solo(workloads[0], case.kernel, case.sources, case.policies, fabric)[1]]
    else:
        report, rows = serve(case, workloads, fabric)
    partitioned = case.serving.startswith("part")
    if report is not None and "order" in active_policies(case.policies):
        if case.sources in PROMISED_ORDERS:
            # what the sessions learned about orderings reaches the server
            assert report.stats_cache_summary["orderings"] > 0, case.id
    for index, (workload, row) in enumerate(zip(workloads, rows)):
        context = f"{case.id}: query {workload.query.name}"
        expected = reference(workload)
        _, default = solo(workload, "default", case.sources, case.policies, fabric)
        # 1. the answer is the reference's
        assert row.multiset == expected, f"{context}: answer differs from the reference"
        assert default.multiset == expected, f"{context}: default answer differs"
        if io:
            continue  # real backends: answers only
        # 2. the whole run is the oracle's
        _, oracle = solo(workload, "oracle", case.sources, case.policies)
        assert default == oracle, f"{context}: default configuration diverges from the oracle"
        if not (partitioned and index == 0):
            assert row == oracle, f"{context}: run diverges from the oracle"
        # 3. a policy changes no answer, and nothing at all where it cannot act
        if case.policies != "none":
            _, off = solo(workload, "default", case.sources, "none")
            assert off.multiset == expected, f"{context}: policy-off answer differs"
            if not triggered(case.sources, case.policies):
                assert default == off, f"{context}: an untriggered policy changed the run"
    return report
