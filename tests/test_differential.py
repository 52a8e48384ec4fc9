"""Differential testing: one table of cases, each held to the oracle.

Every row of :data:`CASES` is a seed plus one value per axis — kernel,
sources, policies, serving, submission order — and
:func:`differential.check_case` holds it to three checks: its answer is the
brute-force reference's; its whole run (rows, every work counter,
``repr(simulated_seconds)``, phase count) is the clock oracle's solo run's,
and so is the default configuration's, which every row runs; and a policy
changes no answer, nor anything at all where it has no trigger.  The table
is committed, not drawn, so a failing row replays with ``-k <its id>``
(seed and axis values joined by ``-``).

:func:`test_the_table_covers_every_pair_and_regime` keeps the table honest:
it covers every pair of axis values, and the regimes the checks lean on
(plan switches, failovers, rate demotions, merge joins, lossy faults, …)
occur on enough rows that no check passes vacuously.  What is not a row —
the killed-envelope controls, failover across envelopes, avg decomposition,
the statistics fold, run order, forced merge joins, static plans and
sessions that share relations — is a named test below.
"""

from __future__ import annotations

import functools
import itertools
import re
import signal
from collections import Counter
from dataclasses import replace

import pytest

from differential import (
    IO_SOURCES,
    KERNELS,
    ORDERED_SOURCES,
    POLICIES,
    SERVING,
    SOURCES,
    SUBMISSION_ORDERS,
    Case,
    IoFabric,
    active_policies,
    canonical_multiset,
    case_workloads,
    check_case,
    fault_plan,
    kernel_context,
    reference,
    run_corrective,
    serve,
    solo,
)
from repro.baselines.static_executor import StaticExecutor
from repro.core.corrective import CorrectiveQueryProcessor
from repro.engine.pipelined import PipelinedExecutor
from repro.experiments.common import build_dataset
from repro.io import (
    CSVFileTransport,
    FaultPlan,
    InjectedTransport,
    ResilientSource,
    TransportError,
)
from repro.io.backends import write_csv
from repro.io.errors import ConnectError
from repro.io.faults import DELAY, RESET, Fault
from repro.optimizer.ordering import JoinStrategy
from repro.optimizer.plans import JoinTree
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.expressions import Aggregate
from repro.serving.sharded import ShardedQueryServer
from repro.sources.source import DataSource
from repro.workloads.queries import query_3a, query_5, query_10a
from workload_generator import generate_workload

#: The pairwise core (every pair of axis values, sorted by serving and
#: sources), :data:`FRAGMENT_FAILOVER`, then rows that make two regimes
#: common enough for the population test: outages with the failover policy
#: and collapsing links with the rate policy.
CASES = [
    Case(0, "compiled1", "local", "all", "solo"),
    Case(2, "compiled1", "bursty", "failover", "solo"),
    Case(4, "default", "collapsing", "rate", "solo"),
    Case(6, "oracle", "outage", "all", "solo"),
    Case(8, "compiled64", "sorted", "none", "solo"),
    Case(10, "interpreted", "sorted_promised", "rate", "solo"),
    Case(12, "interpreted", "perturbed", "order", "solo"),
    Case(14, "compiled7", "perturbed_promised", "all", "solo"),
    Case(16, "compiled1024", "csv", "none", "solo"),
    Case(18, "compiled1024", "sqlite", "none", "solo"),
    Case(20, "default", "http", "rate", "solo"),
    Case(22, "oracle", "local", "order", "inline1", "forward"),
    Case(24, "compiled64", "bursty", "rate", "inline1", "reversed"),
    Case(26, "compiled1", "collapsing", "none", "inline1", "forward"),
    Case(28, "compiled1024", "outage", "rate", "inline1", "reversed"),
    Case(30, "interpreted", "sorted", "all", "inline1", "reversed"),
    Case(32, "oracle", "sorted_promised", "all", "inline1", "reversed"),
    Case(34, "oracle", "perturbed", "all", "inline1", "forward"),
    Case(36, "default", "perturbed_promised", "order", "inline1", "reversed"),
    Case(38, "compiled7", "csv", "order", "inline1", "reversed"),
    Case(40, "compiled7", "sqlite", "failover", "inline1", "forward"),
    Case(42, "compiled64", "http", "rate", "inline1", "forward"),
    Case(44, "default", "local", "failover", "fork2", "forward"),
    Case(46, "compiled1024", "bursty", "all", "fork2", "forward"),
    Case(48, "interpreted", "collapsing", "order", "fork2", "reversed"),
    Case(50, "compiled1", "outage", "all", "fork2", "forward"),
    Case(52, "default", "sorted", "failover", "fork2", "forward"),
    Case(54, "compiled1", "sorted_promised", "order", "fork2", "reversed"),
    Case(56, "compiled64", "perturbed", "none", "fork2", "forward"),
    Case(58, "interpreted", "perturbed_promised", "none", "fork2", "forward"),
    Case(60, "oracle", "csv", "rate", "fork2", "reversed"),
    Case(62, "oracle", "sqlite", "rate", "fork2", "reversed"),
    Case(64, "compiled7", "http", "order", "fork2", "forward"),
    Case(66, "compiled64", "local", "all", "fork4", "forward"),
    Case(68, "oracle", "bursty", "order", "fork4", "forward"),
    Case(70, "compiled1024", "collapsing", "rate", "fork4", "reversed"),
    Case(72, "default", "outage", "none", "fork4", "reversed"),
    Case(74, "compiled7", "sorted", "rate", "fork4", "forward"),
    Case(76, "default", "sorted_promised", "none", "fork4", "reversed"),
    Case(78, "compiled1024", "perturbed", "failover", "fork4", "forward"),
    Case(80, "compiled64", "perturbed_promised", "order", "fork4", "reversed"),
    Case(82, "compiled64", "csv", "failover", "fork4", "forward"),
    Case(84, "interpreted", "sqlite", "order", "fork4", "reversed"),
    Case(86, "compiled1", "http", "all", "fork4", "reversed"),
    Case(88, "compiled7", "local", "rate", "spawn", "reversed"),
    Case(90, "compiled7", "bursty", "none", "spawn", "forward"),
    Case(92, "compiled7", "collapsing", "all", "spawn", "reversed"),
    Case(94, "interpreted", "outage", "failover", "spawn", "reversed"),
    Case(96, "compiled1024", "sorted", "order", "spawn", "forward"),
    Case(98, "compiled64", "sorted_promised", "rate", "spawn", "reversed"),
    Case(100, "compiled1", "perturbed", "rate", "spawn", "forward"),
    Case(102, "compiled1024", "perturbed_promised", "rate", "spawn", "reversed"),
    Case(104, "default", "csv", "all", "spawn", "forward"),
    Case(106, "compiled1", "sqlite", "failover", "spawn", "reversed"),
    Case(108, "compiled1024", "http", "failover", "spawn", "reversed"),
    Case(112, "interpreted", "local", "rate", "part2", "forward"),
    Case(114, "interpreted", "bursty", "order", "part2", "reversed"),
    Case(117, "compiled64", "collapsing", "order", "part2", "reversed"),
    Case(119, "compiled64", "outage", "rate", "part2", "reversed"),
    Case(122, "compiled1", "sorted", "none", "part2", "reversed"),
    Case(124, "compiled1024", "sorted_promised", "failover", "part2", "forward"),
    Case(128, "compiled7", "perturbed", "all", "part2", "reversed"),
    Case(130, "oracle", "perturbed_promised", "failover", "part2", "forward"),
    Case(132, "compiled1", "csv", "order", "part2", "forward"),
    Case(134, "default", "sqlite", "none", "part2", "reversed"),
    Case(136, "oracle", "http", "none", "part2", "forward"),
    Case(138, "compiled1024", "local", "none", "part4", "reversed"),
    Case(141, "default", "bursty", "rate", "part4", "forward"),
    Case(144, "oracle", "collapsing", "failover", "part4", "reversed"),
    Case(148, "compiled7", "outage", "order", "part4", "forward"),
    Case(150, "oracle", "sorted", "all", "part4", "reversed"),
    Case(154, "compiled7", "sorted_promised", "all", "part4", "forward"),
    Case(156, "default", "perturbed", "failover", "part4", "forward"),
    Case(158, "compiled1", "perturbed_promised", "rate", "part4", "forward"),
    Case(161, "interpreted", "csv", "order", "part4", "reversed"),
    Case(163, "compiled64", "sqlite", "all", "part4", "reversed"),
    Case(167, "interpreted", "http", "failover", "part4", "forward"),
    Case(34, "default", "http", "failover", "part2", "forward"),
    Case(1000, "default", "outage", "failover", "solo"),
    Case(1001, "compiled7", "outage", "all", "solo"),
    Case(1002, "interpreted", "outage", "failover", "solo"),
    Case(1003, "compiled64", "outage", "all", "solo"),
    Case(1004, "default", "outage", "failover", "solo"),
    Case(1005, "compiled7", "outage", "all", "solo"),
    Case(1006, "interpreted", "outage", "failover", "solo"),
    Case(1007, "compiled64", "outage", "all", "solo"),
    Case(1008, "default", "outage", "failover", "solo"),
    Case(1009, "compiled7", "outage", "all", "solo"),
    Case(900, "default", "collapsing", "rate", "solo"),
    Case(901, "compiled1", "collapsing", "all", "solo"),
    Case(902, "interpreted", "collapsing", "rate", "solo"),
    Case(903, "compiled1024", "collapsing", "all", "solo"),
    Case(904, "default", "collapsing", "rate", "solo"),
    Case(905, "compiled1", "collapsing", "all", "solo"),
    Case(906, "interpreted", "collapsing", "rate", "solo"),
    Case(907, "compiled1024", "collapsing", "all", "solo"),
    Case(908, "default", "collapsing", "rate", "solo"),
    Case(909, "compiled1", "collapsing", "all", "solo"),
    Case(910, "interpreted", "collapsing", "rate", "solo"),
    Case(911, "compiled1024", "collapsing", "all", "solo"),
]

#: Rows that fail on a defect of the program, with the failure they show.
KNOWN_FAILURES = {
    Case(104, "default", "csv", "all", "spawn", "forward"): (
        "a CSV transport holds its generated decoder, which does not pickle, "
        "so CSV sources cannot reach a spawned worker"
    ),
}

#: The row that composes mirror failover inside a partitioned fragment on
#: the default configuration, over a faulted HTTP source whose mirror
#: resumes mid-chunk (the envelope reads 64-row chunks).
FRAGMENT_FAILOVER = Case(34, "default", "http", "failover", "part2", "forward")

TEST_DEADLINE_SECONDS = 120


@pytest.fixture(autouse=True)
def hard_deadline():
    """Hard per-test timeout, so a wedged socket or worker cannot hang the
    suite."""

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded the {TEST_DEADLINE_SECONDS}s hard deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(TEST_DEADLINE_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def fabric(tmp_path_factory):
    fabric = IoFabric(tmp_path_factory.mktemp("backends"))
    yield fabric
    fabric.close()


def _param(case: Case):
    reason = KNOWN_FAILURES.get(case)
    marks = [pytest.mark.xfail(reason=reason, strict=True)] if reason else []
    return pytest.param(case, id=case.id, marks=marks)


@pytest.mark.parametrize("case", [_param(case) for case in CASES])
def test_case(case, fabric):
    report = check_case(case, fabric)
    if case == FRAGMENT_FAILOVER:
        (merged,) = report.partitioned
        consumed = [
            int(re.search(r"(\d+) tuples consumed", failover["reason"]).group(1))
            for fragment in merged.fragments
            for failover in fragment.report.details["adaptation"]["failovers"]
        ]
        assert any(count % 64 for count in consumed), consumed


# -- the table's reach ---------------------------------------------------------

AXES = {
    "kernel": tuple(KERNELS),
    "sources": SOURCES,
    "policies": tuple(POLICIES),
    "serving": tuple(SERVING),
    "order": SUBMISSION_ORDERS,
}


def _pairs(case: Case) -> set:
    values = [(axis, case._asdict()[axis]) for axis in AXES]
    return set(itertools.combinations(values, 2))


def _possible(pair) -> bool:
    """Solo rows have no submission order, and the oracle's patch does not
    reach a spawned interpreter."""
    values = dict(pair)
    if values.get("serving") == "solo" and "order" in values:
        return False
    return not (values.get("kernel") == "oracle" and values.get("serving") == "spawn")


#: regime -> the fewest rows' workloads it must occur on
REGIMES = {
    "aggregated": 10,
    "multi-join": 15,
    "selective": 8,
    "empty input": 2,
    "empty answer": 3,
    "non-empty answer": 25,
    "remote": 5,
    "multi-phase": 8,
    "multi-phase local": 3,
    "served remote": 2,
    "served multi-phase": 2,
    "served multi-join": 4,
    "served aggregated": 2,
    "rate demotion": 5,
    "rate switch": 3,
    "rate multi-phase": 3,
    "failover": 10,
    "served failover": 1,
    "merge": 5,
    "connect flap": 1,
}


def test_the_table_covers_every_pair_and_regime(fabric):
    """Every pair of axis values is on a row, and every regime a check leans
    on occurs often enough — counted on the default configuration's runs —
    that no check passes vacuously."""
    wanted = {
        ((a, x), (b, y))
        for a, b in itertools.combinations(AXES, 2)
        for x in AXES[a]
        for y in AXES[b]
    }
    covered = set().union(*(_pairs(case) for case in CASES))
    assert not {pair for pair in wanted if _possible(pair)} - covered
    assert len(set(CASES)) == len(CASES)

    counts: Counter = Counter()
    fault_kinds: set = set()
    queries: set = set()
    for case in CASES:
        served = case.serving != "solo"
        policies = active_policies(case.policies)
        for workload in case_workloads(case):
            query = workload.query
            answer = reference(workload)
            if query.name not in queries:
                queries.add(query.name)
                counts["aggregated"] += query.aggregation is not None
                counts["multi-join"] += len(query.relations) >= 3
                counts["selective"] += bool(query.selections)
                counts["empty input"] += any(
                    not relation.rows for relation in workload.relations.values()
                )
                counts["empty answer"] += not answer
                counts["non-empty answer"] += bool(answer)
            report, run = solo(workload, "default", case.sources, case.policies, fabric)
            remote = case.sources in ("bursty", "collapsing", "outage")
            multi_phase = run.phases >= 2
            counts["remote"] += remote
            counts["multi-phase"] += multi_phase
            counts["multi-phase local"] += multi_phase and case.sources == "local"
            if served:
                counts["served remote"] += remote
                counts["served multi-phase"] += multi_phase
                counts["served multi-join"] += len(query.relations) >= 3
                counts["served aggregated"] += query.aggregation is not None
            adaptation = report.details.get("adaptation", {})
            if case.sources == "collapsing" and "rate" in policies:
                counts["rate demotion"] += adaptation["reprioritizations"] > 0
                counts["rate switch"] += any(
                    switch["policy"] == "source_rate" for switch in adaptation["switches"]
                )
                counts["rate multi-phase"] += multi_phase
            if case.sources == "outage" and "failover" in policies and adaptation["failovers"]:
                _, off = solo(workload, "default", "outage", "none")
                counts["failover"] += 1
                counts["served failover"] += served
                counts["faster failover"] += float(run.seconds) < float(off.seconds)
            if case.sources in ORDERED_SOURCES and "order" in policies:
                counts["merge"] += any(
                    "merge" in algorithms.values()
                    for algorithms in report.details["phase_join_algorithms"]
                )
            if case.sources in IO_SOURCES:
                for index, relation in enumerate(workload.relations.values()):
                    plan = fault_plan(workload.seed, index, len(relation.rows))
                    fault_kinds.update(fault.kind for fault in plan.read_faults.values())
                    counts["connect flap"] += plan.connect_flaps > 0
    short = {regime: counts[regime] for regime, least in REGIMES.items() if counts[regime] < least}
    assert not short, f"regimes on too few rows: {short}"
    # mirror failover pays: most runs that failed over finished sooner
    assert counts["faster failover"] >= counts["failover"] / 2, counts
    assert {"reset", "outage", "truncate"} <= fault_kinds, fault_kinds


# -- what is not a row ---------------------------------------------------------


def test_workload_generation_is_deterministic():
    first, second = generate_workload(17), generate_workload(17)
    assert first.query == second.query
    for name in first.relations:
        assert first.relations[name].rows == second.relations[name].rows
    assert first.remote == second.remote


@pytest.mark.parametrize(
    "seed,kernel",
    [
        pytest.param(seed, kernel, id=f"{seed}-{kernel}")
        for seed in range(50)
        for kernel in KERNELS
    ],
)
def test_static_plans_match_the_reference(seed, kernel):
    """Static plans: a fixed left-deep tree on every kernel, with hash joins
    and with every join forced to merge — over unordered data, where the
    merge falls back to its out-of-order archive — and the optimizer's.
    One test per seed and kernel, so ``-k 17-compiled7`` replays one."""
    workload = generate_workload(seed)
    query, expected = workload.query, reference(workload)
    tree = JoinTree.left_deep(query.relations)
    merge = {
        node.relations(): JoinStrategy(algorithm="merge", direction=1)
        for node in tree.internal_nodes()
    }
    for strategies in (None, merge):
        with kernel_context(kernel):
            rows, plan = PipelinedExecutor(
                workload.sources(), join_strategies=strategies, **KERNELS[kernel]
            ).execute(query, tree)
        if strategies:
            assert set(plan.join_algorithms().values()) <= {"merge"}
        names = None if query.aggregation else plan.output_schema.names
        assert canonical_multiset(rows, names, workload) == expected, (
            f"{'merge' if strategies else 'hash'} joins"
        )
    if kernel == "default":
        static = StaticExecutor(workload.catalog(), workload.sources()).execute(query)
        names = static.schema.names if static.schema is not None else None
        assert canonical_multiset(static.rows, names, workload) == expected


class NaiveSource(DataSource):
    """The kill-the-envelope control: one connect, faults read as EOF — the
    bug the envelope exists to prevent: a transport error mid-stream looks
    like a clean end of data, so every lossy fault silently truncates."""

    def __init__(self, transport) -> None:
        super().__init__(transport.name, transport.schema)
        self.transport = transport

    def _stream_columns(self, batch_size, offset, start_at):
        try:
            reader = self.transport.open(offset)
        except TransportError:
            return
        try:
            while True:
                chunk = reader.read_rows(batch_size)
                if not chunk:
                    return
                yield chunk, None
        except TransportError:
            return  # swallowed: rows silently lost
        finally:
            reader.close()


def _plan_is_lossy(plan: FaultPlan, row_count: int) -> bool:
    """Does the plan guarantee the naive reader loses rows?"""
    if row_count == 0:
        return False
    if plan.connect_flaps > 0:
        return True  # naive never retries the connect: zero rows
    return any(fault.kind != DELAY for fault in plan.read_faults.values())


def test_killed_envelope_loses_rows_on_every_lossy_plan(tmp_path):
    """Control: the io rows' faults without the envelope lose rows."""
    lossy = 0
    for seed in range(20):
        workload = generate_workload(seed)
        for index, (name, relation) in enumerate(workload.relations.items()):
            plan = fault_plan(seed, index, len(relation.rows))
            path = str(tmp_path / f"{seed}_{name}.csv")
            write_csv(path, relation)
            transport = InjectedTransport(
                CSVFileTransport(name, path, relation.schema), plan
            )
            delivered = [row for row, _ in NaiveSource(transport).open_stream()]
            if _plan_is_lossy(plan, len(relation.rows)):
                lossy += 1
                assert len(delivered) < len(relation.rows), (seed, name, plan.describe())
            else:
                assert delivered == relation.rows
    assert lossy >= 5, "the seeded plans barely exercise lossy faults"


def test_killed_envelope_breaks_the_engine_differential(tmp_path):
    """Control at engine level: a naive source swallowing one mid-stream
    reset changes the answer, so the io rows' answer check has teeth."""
    for seed in range(20):
        workload = generate_workload(seed)
        victim = max(workload.relations, key=lambda n: len(workload.relations[n].rows))
        if len(workload.relations[victim].rows) >= 4 and reference(workload):
            break
    relation = workload.relations[victim]
    path = str(tmp_path / f"{victim}.csv")
    write_csv(path, relation)
    sources: dict = dict(workload.relations)
    sources[victim] = NaiveSource(
        InjectedTransport(
            CSVFileTransport(victim, path, relation.schema),
            FaultPlan({1: Fault(kind=RESET, offset=1)}),
        )
    )
    report = run_corrective(workload, workload.catalog(), sources)
    assert canonical_multiset(report.rows, report.schema.names, workload) != reference(
        workload
    ), "a swallowed mid-stream reset left the answer intact"


class PrefixThenOutageTransport(CSVFileTransport):
    """Serves the first ``fail_after`` rows, then refuses ``outage_connects``
    reconnects: a primary that collapses mid-stream."""

    def __init__(self, name, path, schema, fail_after: int, outage_connects: int = 6):
        super().__init__(name, path, schema)
        self.fail_after = fail_after
        self.outage_connects = outage_connects

    def open(self, offset):
        if offset >= self.fail_after and self.outage_connects > 0:
            self.outage_connects -= 1
            raise ConnectError(f"{self.name}: primary collapsed")
        reader = super().open(offset)
        if offset >= self.fail_after:
            return reader
        rows = reader.read_rows(self.fail_after - offset)
        reader.close()
        return _PrefixReader(rows)


class _PrefixReader:
    def __init__(self, rows) -> None:
        self.rows, self.done = rows, False

    def read_rows(self, max_rows):
        if self.rows:
            chunk, self.rows = self.rows[:max_rows], self.rows[max_rows:]
            return chunk
        if self.done:
            return []
        self.done = True
        raise ConnectError("primary collapsed mid-stream")

    def close(self):
        pass


def test_mirror_failover_across_envelopes(tmp_path):
    """A primary envelope that collapses a third of the way in fails over
    to its mirror envelope, and the stitched answer is the reference's."""
    workload = generate_workload(3)
    catalog, sources = Catalog(), {}
    for name, relation in workload.relations.items():
        path = str(tmp_path / f"{name}.csv")
        write_csv(path, relation)
        fail_after = max(len(relation.rows) // 3, 1)
        primary = ResilientSource(
            PrefixThenOutageTransport(name, path, relation.schema, fail_after),
            promised_rate=4000.0,
        )
        primary.register_mirror(
            ResilientSource(
                CSVFileTransport(name, path, relation.schema), promised_rate=4000.0
            )
        )
        sources[name] = primary
        catalog.register(name, relation.schema, TableStatistics(promised_rate=4000.0))
    report = run_corrective(workload, catalog, sources, policies="failover")
    assert canonical_multiset(report.rows, report.schema.names, workload) == reference(
        workload
    )
    assert report.details["adaptation"]["failovers"], "the primary never failed over"


def _avg_workload():
    """Seed 23's grouped query with its first aggregate turned into avg (the
    generator draws only sum/count/min/max), aimed at a join attribute where
    it was a count(*)."""
    base = generate_workload(23)
    spec = base.query.aggregation
    first, *rest = spec.aggregates
    argument = first.attribute or base.query.join_predicates[0].left_attr
    aggregates = (Aggregate("avg", argument, first.alias), *rest)
    query = replace(
        base.query,
        name="diff_23_avg",
        aggregation=replace(spec, aggregates=aggregates),
    )
    return replace(base, query=query)


@pytest.mark.parametrize("serving", ("part2", "part4"))
def test_partitioned_avg_is_decomposed(serving):
    """avg runs as sum/count partials per fragment and is finalized at the
    merge, exactly as the unpartitioned avg (integer partials)."""
    workload = _avg_workload()
    case = Case(23, "default", "local", "none", serving, "forward")
    report, (merged, _) = serve(case, [workload, generate_workload(24, "w1_")], None)
    assert merged.multiset == reference(workload)
    fragment_names = report.partitioned[0].fragments[0].report.schema.names
    assert any(name.endswith("__psum") for name in fragment_names)
    assert any(name.endswith("__pcnt") for name in fragment_names)


def test_statistics_fold_is_deterministic():
    """The front-end folds worker snapshots in worker-id order, so the
    statistics cache summary is the same run over run."""
    case = Case(2, "default", "local", "none", "fork4", "forward")
    first, _ = serve(case, case_workloads(case), None)
    second, _ = serve(case, case_workloads(case), None)
    assert first.stats_cache_summary == second.stats_cache_summary
    assert first.stats_cache_summary["queries_absorbed"] == 4


def test_submission_order_is_the_run_order(monkeypatch):
    """A shard runs its sessions in admission order, so reversing the
    submissions reverses the runs."""
    ran: list[str] = []
    execute = CorrectiveQueryProcessor.execute

    def recording(self, query, *args, **kwargs):
        ran.append(query.name)
        return execute(self, query, *args, **kwargs)

    monkeypatch.setattr(CorrectiveQueryProcessor, "execute", recording)
    workloads = [generate_workload(6 + i, name_prefix=f"w{i}_") for i in range(8)]
    names = [workload.query.name for workload in workloads]
    for order, expected in zip(SUBMISSION_ORDERS, (names, names[::-1])):
        ran.clear()
        serve(Case(6, "default", "local", "none", "inline1", order), workloads, None)
        assert ran == expected


#: Sessions that share relations: eight sessions cycling Q3A/Q10A/Q5 over one
#: TPC-H dataset per (scale factor, seed), served on a kernel so that every
#: dataset and every submission order meets both; the last case runs forked.
SHARED_CASES = (
    (0.001, 2004, "forward", "default"),
    (0.001, 2004, "reversed", "interpreted"),
    (0.001, 7, "forward", "interpreted"),
    (0.001, 7, "reversed", "default"),
    (0.002, 2004, "forward", "default"),
    (0.002, 2004, "reversed", "interpreted"),
    (0.002, 7, "forward", "interpreted"),
    (0.002, 7, "reversed", "default"),
)
SHARED_QUERIES = (query_3a, query_10a, query_5)


def _fingerprint(report) -> tuple:
    return (
        Counter(report.rows),
        report.metrics.as_dict(),
        repr(report.simulated_seconds),
        report.num_phases,
    )


@functools.lru_cache(maxsize=None)
def _shared_dataset(scale_factor, seed):
    """A TPC-H dataset and the oracle's solo fingerprint of each query."""
    dataset = build_dataset("uniform", scale_factor, 0.0, seed)
    with kernel_context("oracle"):
        return dataset, {
            make().name: _fingerprint(
                CorrectiveQueryProcessor(
                    dataset.catalog_no_statistics.copy(),
                    dataset.sources,
                    polling_interval_seconds=0.25,
                    **KERNELS["oracle"],
                ).execute(make(), poll_step_limit=200)
            )
            for make in SHARED_QUERIES
        }


@pytest.mark.parametrize("scale_factor,seed,order,kernel", SHARED_CASES)
def test_sessions_sharing_relations_match_solo(scale_factor, seed, order, kernel):
    """Sessions that read the same relations are bit-identical to the
    oracle's solo runs: nothing one session learns reaches another of the
    same run, whatever order they are submitted in.  (The generated
    workloads never share a relation.)"""
    dataset, solo_runs = _shared_dataset(scale_factor, seed)
    queries = [SHARED_QUERIES[index % 3]() for index in range(8)]
    if order == "reversed":
        queries.reverse()
    forked = (scale_factor, seed, order, kernel) == SHARED_CASES[-1]
    server = ShardedQueryServer(
        dataset.catalog_no_statistics,
        dataset.sources,
        workers=2,
        quantum_tuples=200,
        start_method="fork" if forked else "inline",
        polling_interval_seconds=0.25,
        **KERNELS[kernel],
    )
    for query in queries:
        server.submit(query)
    report = server.run()
    assert report.start_method == ("fork" if forked else "inline")
    assert len(report.worker_summaries) == 2
    assert [served.query_name for served in report.served] == [q.name for q in queries]
    for served in report.served:
        assert _fingerprint(served.report) == solo_runs[served.query_name], served.label
    assert set(queries[0].relations) & set(queries[1].relations)
