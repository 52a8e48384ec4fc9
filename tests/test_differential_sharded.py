"""Sharded-serving-vs-solo differential tests.

The correctness bar of the serving tier: routing N queries across worker
processes — each worker running its shard's sessions one plain corrective
execution at a time, statistics snapshots folded at the front-end — must
leave every query's result **bit-identical** to its solo corrective
execution: multiset, work counters, simulated seconds and phase counts all
equal, on every worker count, submission order and engine mode.

Partition-parallel execution gets the same treatment: hash-partitioning a
query's heaviest join edge, running one fragment per partition on separate
workers, and merging at the root must reproduce the unpartitioned multiset
exactly — including decomposed-avg aggregation, which the workload
generator never draws and is therefore pinned by a hand-built query.

The workloads reuse the same seeded generator as the engine differential
tests, whose workloads never share a relation; the shared-relation cases run
the paper's TPC-H queries over one dataset instead.  A meta-test pins
population diversity so the assertions cannot silently become vacuous.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import pytest

from differential import (
    SUBMISSION_ORDERS,
    run_partition_differential_case,
    run_sharded_differential_case,
)

from repro.core.corrective import CorrectiveQueryProcessor
from repro.experiments.common import build_dataset
from repro.relational.algebra import SPJAQuery
from repro.relational.expressions import Aggregate
from repro.serving.sharded import ShardedQueryServer
from repro.workloads.queries import query_3a, query_5, query_10a
from workload_generator import generate_workload

#: (worker count, workload seeds) — issue-mandated N ∈ {2, 4}, drawn from
#: the same seed population as the serving differential tests.
WORKER_CASES = (
    (2, (0, 1, 2, 3)),
    (4, (6, 7, 8, 9, 10, 11, 12, 13)),
)

#: (engine mode, batch size): tuple-at-a-time, batched, compiled.
ENGINE_CASES = (
    ("interpreted", None),
    ("interpreted", 64),
    ("compiled", 64),
)

#: Local (materialized) seeds whose queries partition well: SPJ joins and
#: grouped aggregation, small enough to keep the suite fast.
PARTITION_SPJ_SEEDS = (3, 22)
PARTITION_AGG_SEEDS = (23, 33)

#: Shared-relation cases: eight sessions cycling Q3A/Q10A/Q5 over one TPC-H
#: dataset, so every session reads the same relations, at (scale factor,
#: dataset seed) in this grid.  One combination runs under ``fork``.
SHARED_DATASETS = ((0.001, 2004), (0.001, 7), (0.002, 2004), (0.002, 7))
SHARED_ENGINES = (("compiled", 64), ("interpreted", None))
SHARED_FORK_CASE = (0.002, 7, "reversed", "compiled")
SHARED_SESSIONS = 8
SHARED_POLLING_INTERVAL = 0.25
SHARED_QUANTUM = 200

_CASE_CACHE: dict[tuple, object] = {}
_SHARED_CACHE: dict[tuple, "SharedRelationCase"] = {}


def _case(seeds, order, workers, engine_mode="interpreted", batch_size=None,
          start_method=None):
    key = (tuple(seeds), order, workers, engine_mode, batch_size, start_method)
    result = _CASE_CACHE.get(key)
    if result is None:
        result = run_sharded_differential_case(
            seeds,
            order,
            workers,
            batch_size=batch_size,
            engine_mode=engine_mode,
            start_method=start_method,
        )
        _CASE_CACHE[key] = result
    return result


@dataclass
class SharedRelationCase:
    """One shared-relation sharded run: the queries in admission order and
    the report whose every session matched its solo run."""

    queries: list[SPJAQuery]
    report: object  # repro.serving.sharded.ServingReport


def _observables(report) -> tuple:
    return (
        Counter(report.rows),
        report.metrics.as_dict(),
        repr(report.simulated_seconds),
        report.num_phases,
    )


def _shared_case(scale_factor, seed, order, engine_mode, batch_size):
    key = (scale_factor, seed, order, engine_mode)
    cached = _SHARED_CACHE.get(key)
    if cached is not None:
        return cached
    dataset = build_dataset("uniform", scale_factor, 0.0, seed)
    makers = (query_3a, query_10a, query_5)
    queries = [makers[index % len(makers)]() for index in range(SHARED_SESSIONS)]
    if order == "reversed":
        queries.reverse()
    options = dict(
        polling_interval_seconds=SHARED_POLLING_INTERVAL,
        batch_size=batch_size,
        engine_mode=engine_mode,
    )
    solo = {
        query.name: _observables(
            CorrectiveQueryProcessor(
                dataset.catalog_no_statistics.copy(), dataset.sources, **options
            ).execute(query, poll_step_limit=SHARED_QUANTUM)
        )
        for query in queries[: len(makers)]
    }
    server = ShardedQueryServer(
        dataset.catalog_no_statistics,
        dataset.sources,
        workers=2,
        quantum_tuples=SHARED_QUANTUM,
        start_method="fork" if key == SHARED_FORK_CASE else "inline",
        **options,
    )
    for query in queries:
        server.submit(query)
    report = server.run()
    assert [served.query_name for served in report.served] == [
        query.name for query in queries
    ]
    for served in report.served:
        assert _observables(served.report) == solo[served.query_name], (
            f"SF {scale_factor}, seed {seed}, {order} submission, "
            f"engine={engine_mode}@{batch_size}: session {served.label!r} "
            "diverges from its solo run"
        )
    case = _SHARED_CACHE[key] = SharedRelationCase(queries, report)
    return case


@pytest.mark.parametrize("engine_mode,batch_size", SHARED_ENGINES,
                         ids=lambda value: str(value))
@pytest.mark.parametrize("order", SUBMISSION_ORDERS)
@pytest.mark.parametrize("scale_factor,seed", SHARED_DATASETS,
                         ids=lambda value: str(value))
def test_sharded_sessions_sharing_relations_match_solo(
    scale_factor, seed, order, engine_mode, batch_size
):
    """Sessions that read the same relations stay bit-identical to solo
    (asserted in the runner): nothing one session learns reaches another
    session of the same run, whatever order they are submitted in."""
    case = _shared_case(scale_factor, seed, order, engine_mode, batch_size)
    forked = (scale_factor, seed, order, engine_mode) == SHARED_FORK_CASE
    assert case.report.start_method == ("fork" if forked else "inline")
    assert len(case.report.served) == SHARED_SESSIONS
    assert len(case.report.worker_summaries) == 2


def _shares_a_relation(queries) -> bool:
    seen: set[str] = set()
    for query in queries:
        if seen & set(query.relations):
            return True
        seen |= set(query.relations)
    return False


@pytest.mark.parametrize("engine_mode,batch_size", ENGINE_CASES,
                         ids=lambda value: str(value))
@pytest.mark.parametrize("order", SUBMISSION_ORDERS)
@pytest.mark.parametrize("workers,seeds", WORKER_CASES,
                         ids=lambda value: str(value))
def test_sharded_matches_solo(workers, seeds, order, engine_mode, batch_size):
    """Every served query is bit-identical to solo (asserted in the runner);
    here we pin that the run genuinely sharded the work."""
    result = _case(seeds, order, workers, engine_mode, batch_size)
    report = result.report
    assert len(report.served) == len(seeds)
    assert report.workers == workers
    # Round-robin routing touched every worker and each ran sessions.
    assert len(report.worker_summaries) == workers
    assert all(summary.sessions >= 1 for summary in report.worker_summaries)


def test_sharded_inline_mode_identical_to_processes():
    """``start_method="inline"`` (no processes) reproduces the exact same
    observables as real worker processes — the scheduling is deterministic
    and process boundaries carry no semantics."""
    seeds = (0, 1, 2, 3)
    with_processes = _case(seeds, "forward", 2)
    inline = _case(seeds, "forward", 2, start_method="inline")
    for a, b in zip(with_processes.served, inline.served):
        assert a == b


def test_sharded_spawn_start_method():
    """The spawn start method — fresh interpreters, everything crosses the
    boundary by pickling — reproduces solo observables too.  One small case:
    spawn pays interpreter startup per worker."""
    result = _case((0, 1), "forward", 2, start_method="spawn")
    assert result.report.start_method == "spawn"
    assert len(result.report.served) == 2


def test_sharded_statistics_fold_deterministic():
    """The front-end folds worker snapshots in worker-id order, so the
    persistent cache summary is identical run over run."""
    first = run_sharded_differential_case((2, 3, 4, 5), "forward", 4)
    second = run_sharded_differential_case((2, 3, 4, 5), "forward", 4)
    assert first.report.stats_cache_summary == second.report.stats_cache_summary
    assert first.report.stats_cache_summary["queries_absorbed"] == 4


@pytest.mark.parametrize("partitions", (2, 4))
@pytest.mark.parametrize("seed", PARTITION_SPJ_SEEDS)
def test_partition_parallel_spj(seed, partitions):
    """Hash-partitioned SPJ joins merge back to the exact solo multiset."""
    result = run_partition_differential_case(seed, partitions)
    assert result.partitioned.partitions == partitions
    # The fragments genuinely split the work: with co-located hash
    # partitioning every fragment's multiset is a sub-multiset of the whole.
    assert sum(len(f.report.rows) for f in result.partitioned.fragments) == (
        sum(result.reference.values())
    )


@pytest.mark.parametrize("partitions", (2, 4))
@pytest.mark.parametrize("seed", PARTITION_AGG_SEEDS)
def test_partition_parallel_aggregation(seed, partitions):
    """Grouped aggregates fold per group key across fragments exactly."""
    result = run_partition_differential_case(seed, partitions)
    assert result.merged == result.reference


@pytest.mark.parametrize("engine_mode,batch_size",
                         (("interpreted", 64), ("compiled", 64)),
                         ids=lambda value: str(value))
def test_partition_parallel_batched_engines(engine_mode, batch_size):
    """Partition-parallel execution under batched and compiled engines."""
    run_partition_differential_case(
        22, 4, engine_mode=engine_mode, batch_size=batch_size
    )


def _avg_workload():
    """A hand-built decomposed-avg workload: the generator only draws
    sum/count/min/max, so avg's sum/count partial decomposition would
    otherwise go untested."""
    base = generate_workload(23)  # local, grouped count over a join
    spec = base.query.aggregation
    assert spec is not None
    swapped = False
    aggregates = []
    for index, agg in enumerate(spec.aggregates):
        if not swapped and agg.function in ("sum", "count", "min", "max"):
            argument = agg.attribute
            if argument is None:  # count(*) — aim avg at a join attribute
                argument = base.query.join_predicates[0].left_attr
            aggregates.append(Aggregate("avg", argument, agg.alias))
            swapped = True
        else:
            aggregates.append(agg)
    assert swapped
    query = replace(
        base.query, aggregation=replace(spec, aggregates=tuple(aggregates))
    )
    return replace(base, query=query)


@pytest.mark.parametrize("partitions", (2, 4))
def test_partition_parallel_avg_decomposition(partitions):
    """avg rewrites to sum/count partials per fragment and finalizes at the
    merge — bit-identically to the unpartitioned avg (integer partials make
    the final division operands exact)."""
    workload = _avg_workload()
    result = run_partition_differential_case(
        workload.seed, partitions, workload=workload
    )
    assert any(
        agg.function == "avg" for agg in result.workload.query.aggregation.aggregates
    )
    # The fragment query the workers actually ran carries the decomposition:
    # its output schema holds the sum/count partial columns, not the avg.
    fragment_names = result.partitioned.fragments[0].report.schema.names
    assert any(name.endswith("__psum") for name in fragment_names)
    assert any(name.endswith("__pcnt") for name in fragment_names)


def test_sharded_population_covers_interesting_regimes():
    """The bit-identical claims only bite if the sharded population is
    diverse: remote (bursty-arrival) sources, multi-phase corrective
    executions, multi-join queries and aggregation must all appear, and so
    must two sessions reading one relation.  The generated population cannot
    supply that last regime: it gives workload ``i`` its own ``w{i}_``
    relations, so what one session learns about a relation never has
    another session to leak into.  The shared-relation cases do."""
    cases = [
        _case(seeds, order, workers)
        for workers, seeds in WORKER_CASES
        for order in SUBMISSION_ORDERS
    ]
    shared_cases = [
        _shared_case(scale_factor, seed, order, engine_mode, batch_size)
        for scale_factor, seed in SHARED_DATASETS[:1]
        for order in SUBMISSION_ORDERS
        for engine_mode, batch_size in SHARED_ENGINES[:1]
    ]
    sharing = sum(
        1
        for queries in [
            [workload.query for workload in case.workloads] for case in cases
        ]
        + [case.queries for case in shared_cases]
        if _shares_a_relation(queries)
    )
    remote = sum(case.num_remote for case in cases)
    multi_phase = sum(
        1 for case in cases for phases in case.served_phase_counts if phases >= 2
    )
    multi_join = sum(
        1
        for case in cases
        for workload in case.workloads
        if len(workload.query.relations) >= 3
    )
    aggregated = sum(
        1
        for case in cases
        for workload in case.workloads
        if workload.query.aggregation is not None
    )
    assert remote >= 2, "no remote workloads sharded — arrival waits untested"
    assert multi_phase >= 2, (
        "no sharded query ran multiple corrective phases — adaptation inside "
        "workers is at risk of being vacuously true"
    )
    assert multi_join >= 4
    assert aggregated >= 2
    assert sharing >= 1, (
        "no sharded run has two sessions reading one relation — leaks "
        "between sessions of one run are untested"
    )
