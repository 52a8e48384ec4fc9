"""Unit tests for the sharded serving tier.

The differential suites (``test_differential_sharded.py``) pin the
end-to-end bit-identity contract; these tests pin the individual pieces:
session→worker routing, the statistics snapshot protocol, the cross-process
manager store, the hash-partition helpers, worker failure propagation and
the front-end's admission validation, and the worker's run-to-completion
order.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import pickle
import threading
from multiprocessing.process import BaseProcess
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import (
    POLL_STEP_LIMIT,
    POLLING_INTERVAL,
    SUBMISSION_ORDERS,
    run_sharded_workloads,
)

from repro.core.corrective import CorrectiveQueryProcessor
from repro.io.wallclock import wall_now
from repro.optimizer.statistics import ObservedStatistics
from repro.relational.algebra import AggregateSpec, SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.expressions import Aggregate, JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serving import (
    SessionSpec,
    ShardTask,
    ShardedQueryServer,
    SharedStatisticsCache,
    SharedStatisticsStore,
    shard_assignment,
)
from repro.serving.partition import (
    build_partition_plan,
    choose_partition_edge,
    fragment_query,
    merge_partition_results,
    stable_partition_index,
)
from repro.serving.specs import SessionResult
from repro.serving.worker import drive_shard, worker_main
from repro.sources.source import LocalSource
from repro.workloads.queries import query_3a, query_10a
from workload_generator import generate_workload


def _rel(name: str, attrs: list[str], rows: list[tuple]) -> Relation:
    return Relation(name, Schema.from_names(attrs, relation=name), rows)


class TestShardAssignment:
    def test_round_robin_by_admission_index(self):
        assert shard_assignment(5, 2) == [0, 1, 0, 1, 0]
        assert shard_assignment(3, 4) == [0, 1, 2]

    def test_single_worker_gets_everything(self):
        assert shard_assignment(4, 1) == [0, 0, 0, 0]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            shard_assignment(4, 0)


class TestStatisticsSnapshot:
    def _observed(self, selectivity: float = 0.25) -> ObservedStatistics:
        observed = ObservedStatistics()
        observed.selectivities[frozenset(("a", "b"))] = selectivity
        return observed

    def test_snapshot_is_detached_from_live_views(self):
        cache = SharedStatisticsCache()
        cache.absorb(self._observed())
        cache.cardinalities["a"] = 10
        snapshot = cache.snapshot_state()
        # Mutating the cache after the fact must not leak into the snapshot.
        cache.absorb(self._observed(0.9))
        cache.cardinalities["a"] = 99
        assert snapshot.observed.selectivities[frozenset(("a", "b"))] == 0.25
        assert snapshot.cardinalities == {"a": 10}
        assert snapshot.queries_absorbed == 1

    def test_snapshot_pickles(self):
        cache = SharedStatisticsCache()
        cache.absorb(self._observed())
        cache.cardinalities["a"] = 50
        snapshot = pickle.loads(pickle.dumps(cache.snapshot_state()))
        assert snapshot.observed.selectivities == {frozenset(("a", "b")): 0.25}
        assert snapshot.cardinalities == {"a": 50}
        assert snapshot.queries_absorbed == 1

    def _query_ab(self) -> SPJAQuery:
        return SPJAQuery(
            name="ab",
            relations=("a", "b"),
            join_predicates=(JoinPredicate("a", "x", "b", "y"),),
        )

    def test_hydrate_reattaches_live_views_and_zeroes_counters(self):
        source = SharedStatisticsCache()
        source.absorb(self._observed())
        assert source.seed_for(self._query_ab()) is not None
        worker = SharedStatisticsCache()
        worker.hydrate_state(source.snapshot_state())
        assert worker.selectivities == source.selectivities
        assert worker.queries_absorbed == 0
        assert worker.queries_seeded == 0
        # The live views must point at the hydrated observations: a
        # subsequent absorb must show up through them.
        worker.absorb(self._observed(0.5))
        assert worker.selectivities[frozenset(("a", "b"))] == 0.5

    def test_absorb_snapshot_folds_and_max_folds(self):
        front = SharedStatisticsCache()
        front.cardinalities["a"] = 20
        shard = SharedStatisticsCache()
        shard.absorb(self._observed())
        shard.cardinalities.update({"a": 10, "b": 7})
        assert shard.seed_for(self._query_ab()) is not None
        front.absorb_snapshot(shard.snapshot_state())
        assert front.cardinalities == {"a": 20, "b": 7}
        assert front.selectivities[frozenset(("a", "b"))] == 0.25
        # the shard's counters add to the front-end's
        assert front.queries_absorbed == 1
        assert front.queries_seeded == 1

    def test_every_shards_seed_count_reaches_the_front_end(self, tiny_tpch):
        catalog = Catalog()
        for relation in tiny_tpch.relations.values():
            catalog.register(relation.name, relation.schema, relation=relation)
        cache = SharedStatisticsCache()
        reports = []
        for _ in range(2):
            server = ShardedQueryServer(
                catalog,
                dict(tiny_tpch.relations),
                workers=2,
                start_method="inline",
                stats_cache=cache,
            )
            for query in (query_3a(), query_10a(), query_3a()):
                server.submit(query)
            reports.append(server.run())
        seeded = [
            [served.report.details["seeded_statistics"] for served in report.served]
            for report in reports
        ]
        # the first run starts from an empty cache; every session of the
        # second is seeded, in whichever of the two shards it ran
        assert seeded == [[False] * 3, [True] * 3]
        assert cache.queries_seeded == 3
        assert cache.queries_absorbed == 6
        assert reports[1].stats_cache_summary == cache.summary()


class TestSharedStatisticsStore:
    def test_store_shares_state_through_manager(self):
        with SharedStatisticsStore() as store:
            observed = ObservedStatistics()
            observed.selectivities[frozenset(("r", "s"))] = 0.125
            store.absorb(observed)
            summary = store.summary()
            assert summary["selectivities"] == 1
            assert summary["queries_absorbed"] == 1
            query = SPJAQuery(
                name="q",
                relations=("r", "s"),
                join_predicates=(JoinPredicate("r", "x", "s", "y"),),
            )
            seed = store.seed_for(query)
            assert seed is not None
            assert seed.selectivity_of(("r", "s")) == 0.125

    def test_apply_cardinalities_runs_facade_side(self):
        with SharedStatisticsStore() as store:
            cache = SharedStatisticsCache()
            cache.cardinalities["r"] = 42
            store.absorb_snapshot(cache.snapshot_state())
            catalog = Catalog()
            catalog.register("r", Schema.from_names(["x"], relation="r"))
            assert store.apply_cardinalities(catalog) == 1
            assert catalog.statistics("r").cardinality == 42


class TestPartitionHelpers:
    def test_stable_partition_index_is_process_independent(self):
        # crc32-of-repr, never builtin hash: these exact buckets must hold
        # in every interpreter regardless of PYTHONHASHSEED.
        assert [stable_partition_index(v, 4) for v in (0, 1, 2, "x")] == [
            stable_partition_index(v, 4) for v in (0, 1, 2, "x")
        ]
        assert all(0 <= stable_partition_index(v, 3) < 3 for v in range(100))

    def test_choose_partition_edge_prefers_heaviest(self):
        query = SPJAQuery(
            name="q",
            relations=("r", "s", "t"),
            join_predicates=(
                JoinPredicate("r", "a", "s", "b"),
                JoinPredicate("s", "b", "t", "c"),
            ),
        )
        relations = {
            "r": _rel("r", ["a"], [(i,) for i in range(2)]),
            "s": _rel("s", ["b"], [(i,) for i in range(3)]),
            "t": _rel("t", ["c"], [(i,) for i in range(50)]),
        }
        edge = choose_partition_edge(query, relations)
        assert (edge.left_relation, edge.right_relation) == ("s", "t")

    def test_choose_partition_edge_requires_materialized_join(self):
        no_join = SPJAQuery(name="q", relations=("r",), join_predicates=())
        with pytest.raises(ValueError, match="no join predicates"):
            choose_partition_edge(no_join, {})
        query = SPJAQuery(
            name="q",
            relations=("r", "s"),
            join_predicates=(JoinPredicate("r", "a", "s", "b"),),
        )
        with pytest.raises(ValueError, match="materialized"):
            choose_partition_edge(query, {"r": _rel("r", ["a"], [])})

    @staticmethod
    def _per_row_reference(rows, position, partitions):
        fragments = [[] for _ in range(partitions)]
        for row in rows:
            fragments[stable_partition_index(row[position], partitions)].append(row)
        return fragments

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_fragments_match_per_row_hashing(self, data):
        """Hashing each distinct key once, with one memo for both sides of
        the edge, leaves every fragment exactly what hashing every row gives:
        same rows, same order, on both sides."""
        pool = data.draw(
            st.lists(
                st.one_of(st.integers(-30, 30), st.text(max_size=3)),
                min_size=1,
                max_size=6,
                unique=True,
            ),
            label="key pool",
        )
        key = st.sampled_from(pool)
        left_rows = data.draw(st.lists(st.tuples(key, st.integers(0, 9)), max_size=40))
        right_rows = data.draw(st.lists(st.tuples(st.integers(0, 9), key), max_size=40))
        partitions = data.draw(st.sampled_from((2, 3, 4)), label="k")
        left = _rel("r", ["a", "x"], left_rows)
        right = _rel("s", ["y", "b"], right_rows)
        query = SPJAQuery(
            name="q",
            relations=("r", "s"),
            join_predicates=(JoinPredicate("r", "a", "s", "b"),),
        )
        plan = build_partition_plan("q", query, {"r": left, "s": right}, partitions)
        expected_left = self._per_row_reference(left_rows, 0, partitions)
        expected_right = self._per_row_reference(right_rows, 1, partitions)
        assert [override["r"].rows for override in plan.overrides] == expected_left
        assert [override["s"].rows for override in plan.overrides] == expected_right
        assert all(override["r"].name == "r" for override in plan.overrides)

    def test_fragment_query_identity_without_avg(self):
        workload = generate_workload(23)
        assert fragment_query(workload.query) is workload.query

    def test_fragment_query_decomposes_avg(self):
        query = SPJAQuery(
            name="q",
            relations=("r", "s"),
            join_predicates=(JoinPredicate("r", "a", "s", "b"),),
            aggregation=AggregateSpec(
                ("a",),
                (
                    Aggregate("avg", "b", "avg_b"),
                    Aggregate("max", "b", "max_b"),
                ),
            ),
        )
        fragment = fragment_query(query)
        assert fragment.aggregation is not None
        assert [
            (agg.function, agg.alias) for agg in fragment.aggregation.aggregates
        ] == [
            ("sum", "avg_b__psum"),
            ("count", "avg_b__pcnt"),
            ("max", "max_b"),
        ]

    @staticmethod
    def _per_value_merge(fragments, functions):
        """The root merge stated per value: fold in partition order, the
        first partial of a group as it stands, ``None`` skipped by min/max."""
        states = {}
        for rows in fragments:
            for key, *partials in rows:
                state = states.get((key,))
                if state is None:
                    states[(key,)] = list(partials)
                    continue
                for position, (function, value) in enumerate(zip(functions, partials)):
                    old = state[position]
                    if function in ("sum", "count"):
                        state[position] = old + value
                    elif value is not None and (
                        old is None or (value < old if function == "min" else value > old)
                    ):
                        state[position] = value
        return states

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_merge_folds_like_the_per_value_rule(self, data):
        """Floats make the sums depend on their order: the merged rows must
        be the per-value fold's, bit for bit, with and without an ``avg``."""
        functions = data.draw(
            st.lists(
                st.sampled_from(["sum", "count", "min", "max", "avg"]), min_size=1, max_size=4
            ),
            label="aggregates",
        )
        aggregates = tuple(
            Aggregate(function, "x", f"a{index}")
            for index, function in enumerate(functions)
        )
        query = SPJAQuery(
            name="q",
            relations=("r", "s"),
            join_predicates=(JoinPredicate("r", "k", "s", "k2"),),
            aggregation=AggregateSpec(("k",), aggregates),
        )
        relations = {"r": _rel("r", ["k", "x"], [(1, 1)]), "s": _rel("s", ["k2"], [(1,)])}
        plan = build_partition_plan("q", query, relations, 3)
        fragment = plan.fragment.aggregation
        partial_functions = [aggregate.function for aggregate in fragment.aggregates]
        value = st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 3.0])

        def partial(function):
            if function == "count":
                return st.integers(0, 3)
            if function in ("min", "max"):
                return st.one_of(st.none(), value)
            return value

        row = st.tuples(st.sampled_from("abc"), *map(partial, partial_functions))
        fragments = [
            data.draw(st.lists(row, max_size=12, unique_by=lambda r: r[0]))
            for _ in range(3)
        ]
        names = list(fragment.output_attributes)
        results = [
            SessionResult(
                index=index, label="q", query_name="q", worker_id=0,
                report=SimpleNamespace(rows=rows, schema=Schema.from_names(names)),
                partition_of="q", partition_index=index,
            )
            for index, rows in enumerate(fragments)
        ]
        merged, schema = merge_partition_results(plan, results[::-1])
        assert schema.names == tuple(query.aggregation.output_attributes)
        expected = []
        for key, partials in self._per_value_merge(fragments, partial_functions).items():
            finals, position = [], 0
            for aggregate in aggregates:
                if aggregate.function == "avg":
                    total, count = partials[position : position + 2]
                    finals.append(total / count if count else None)
                    position += 2
                else:
                    finals.append(partials[position])
                    position += 1
            expected.append(key + tuple(finals))
        assert repr(merged) == repr(expected)

    def test_merge_rejects_incomplete_fragment_sets(self):
        query = SPJAQuery(
            name="q",
            relations=("r", "s"),
            join_predicates=(JoinPredicate("r", "a", "s", "b"),),
        )
        relations = {
            "r": _rel("r", ["a"], [(i,) for i in range(8)]),
            "s": _rel("s", ["b"], [(i,) for i in range(8)]),
        }
        plan = build_partition_plan("q", query, relations, 2)
        with pytest.raises(ValueError, match="expected fragments"):
            merge_partition_results(plan, [])


class TestRunToCompletion:
    """A worker seeds every session first, then runs one session at a time to
    completion, in admission order, absorbing each as it finishes."""

    #: one shard of four differential workloads over 4, 2, 3 and 2 relations
    SEEDS = (0, 1, 3, 6)
    #: admission order per submission order, as indexes into ``SEEDS``
    ADMITTED = {"forward": [0, 1, 2, 3], "reversed": [3, 2, 1, 0]}

    @pytest.mark.parametrize("order", SUBMISSION_ORDERS)
    def test_sessions_run_to_completion_in_admission_order(self, order, monkeypatch):
        events: list[tuple[str, str]] = []
        execute = CorrectiveQueryProcessor.execute
        seed_for = SharedStatisticsCache.seed_for
        absorb = SharedStatisticsCache.absorb

        def recording_execute(processor, query, *args, **kwargs):
            events.append(("run", query.name))
            return execute(processor, query, *args, **kwargs)

        def recording_seed_for(cache, query):
            events.append(("seed", query.name))
            return seed_for(cache, query)

        def recording_absorb(cache, observed):
            events.append(("absorb", ""))
            return absorb(cache, observed)

        monkeypatch.setattr(CorrectiveQueryProcessor, "execute", recording_execute)
        monkeypatch.setattr(SharedStatisticsCache, "seed_for", recording_seed_for)
        monkeypatch.setattr(SharedStatisticsCache, "absorb", recording_absorb)
        workloads = [
            generate_workload(seed, name_prefix=f"w{index}_")
            for index, seed in enumerate(self.SEEDS)
        ]
        report, _ = run_sharded_workloads(workloads, order, 1, start_method="inline")

        names = [workloads[index].query.name for index in self.ADMITTED[order]]
        assert events == (
            [("seed", name) for name in names]
            + [
                event
                for name in names
                for event in (("run", name), ("absorb", ""))
            ]
        )
        assert [served.query_name for served in report.served] == names
        assert report.worker_summaries[0].sessions == len(names)


class _StubQueue:
    """Just enough queue surface for ``worker_main`` outside a process."""

    def __init__(self):
        self.out: list = []

    def put(self, item):
        self.out.append(item)

    def close(self):
        pass

    def join_thread(self):
        pass


class _ExitingSource(LocalSource):
    """Streams a few rows, then takes its process down the way SIGKILL or the
    OOM killer would: no exception, no traceback, no ``ShardResult``."""

    def open_stream_columns(self, batch_size, offset=0, start_at=None):
        yield self.relation.rows[:3], None
        os._exit(3)


class _StalledSource(LocalSource):
    """Never delivers a row: a worker reading it runs until it is stopped."""

    def open_stream_columns(self, batch_size, offset=0, start_at=None):
        threading.Event().wait()
        yield from ()


class TestWorkerFailures:
    def _broken_task(self) -> ShardTask:
        workload = generate_workload(2)  # local
        return ShardTask(
            worker_id=3,
            policy="round_robin",
            catalog=workload.catalog(),
            # Not a source: session construction/execution must blow up.
            sources={name: object() for name in workload.relations},
            specs=(
                SessionSpec(
                    index=0, label="q", query=workload.query, quantum_tuples=40
                ),
            ),
        )

    def test_worker_main_reports_tracebacks_instead_of_dying(self):
        results = _StubQueue()
        worker_main(self._broken_task(), results)
        assert len(results.out) == 1
        result = results.out[0]
        assert result.worker_id == 3
        assert result.error is not None and "Traceback" in result.error

    def test_front_end_reraises_worker_failure(self):
        workload = generate_workload(2)
        server = ShardedQueryServer(
            workload.catalog(),
            {name: object() for name in workload.relations},
            workers=1,
            quantum_tuples=POLL_STEP_LIMIT,
            polling_interval_seconds=POLLING_INTERVAL,
        )
        server.submit(workload.query)
        with pytest.raises(RuntimeError, match="worker 0 failed"):
            server.run()

    def test_dead_worker_fails_the_run_promptly_and_is_named(self):
        """A worker that exits without posting a result must not leave the
        front-end waiting out ``result_timeout_seconds`` (ten minutes); the
        healthy worker, which exits 0 after delivering, is not blamed."""
        healthy = generate_workload(2, name_prefix="ok_")
        doomed = generate_workload(2, name_prefix="bad_")
        catalog = healthy.catalog()
        for name, relation in doomed.relations.items():
            catalog.register(name, relation.schema)
        sources = healthy.sources()
        sources.update(
            (name, _ExitingSource(relation))
            for name, relation in doomed.relations.items()
        )
        server = ShardedQueryServer(
            catalog,
            sources,
            workers=2,
            quantum_tuples=POLL_STEP_LIMIT,
            polling_interval_seconds=POLLING_INTERVAL,
        )
        server.submit(healthy.query)  # -> worker 0
        server.submit(doomed.query)  # -> worker 1
        started = wall_now()
        with pytest.raises(RuntimeError, match=r"worker 1 \(exit code 3\)") as raised:
            server.run()
        assert wall_now() - started < 5.0
        assert "worker 0" not in str(raised.value)

    def test_a_failed_worker_start_stops_the_workers_already_started(
        self, monkeypatch
    ):
        """When the second fork fails (EAGAIN, ENOMEM), the error propagates
        and the first worker, which would otherwise run on with nobody to
        read its result, is stopped."""
        workload = generate_workload(2)
        server = ShardedQueryServer(
            workload.catalog(),
            {
                name: _StalledSource(relation)
                for name, relation in workload.relations.items()
            },
            workers=2,
            quantum_tuples=POLL_STEP_LIMIT,
            polling_interval_seconds=POLLING_INTERVAL,
        )
        server.submit(workload.query)
        server.submit(workload.query)
        start = BaseProcess.start
        starts: list[BaseProcess] = []

        def failing_second_start(process):
            starts.append(process)
            if len(starts) == 2:
                raise OSError(errno.EAGAIN, "fork failed")
            start(process)

        monkeypatch.setattr(BaseProcess, "start", failing_second_start)
        with pytest.raises(OSError, match="fork failed"):
            server.run()
        assert len(starts) == 2
        assert multiprocessing.active_children() == []


class TestShardedServerValidation:
    def _server(self, **kwargs) -> tuple[ShardedQueryServer, object]:
        workload = generate_workload(2)
        server = ShardedQueryServer(
            workload.catalog(),
            workload.sources(),
            quantum_tuples=POLL_STEP_LIMIT,
            polling_interval_seconds=POLLING_INTERVAL,
            start_method="inline",
            **kwargs,
        )
        return server, workload

    def test_rejects_nonpositive_workers(self):
        workload = generate_workload(2)
        with pytest.raises(ValueError):
            ShardedQueryServer(workload.catalog(), workload.sources(), workers=0)

    @pytest.mark.parametrize("policy", ["shortest_remaining_cost", "fifo"])
    def test_only_admission_order_is_a_policy(self, policy):
        """``"round_robin"`` (admission order) is the one policy; the server
        and a worker handed a task directly both reject any other name."""
        workload = generate_workload(2)
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            ShardedQueryServer(workload.catalog(), workload.sources(), policy=policy)
        task = ShardTask(
            worker_id=0,
            policy=policy,
            catalog=workload.catalog(),
            sources=workload.sources(),
            specs=(SessionSpec(index=0, label="q", query=workload.query),),
        )
        with pytest.raises(ValueError, match=repr(policy)):
            drive_shard(task)

    def test_rejects_unregistered_sources(self):
        server, workload = self._server()
        ghost = SPJAQuery(name="ghost", relations=("nope",), join_predicates=())
        with pytest.raises(KeyError):
            server.submit(ghost)

    @pytest.mark.parametrize(
        "submissions,expected",
        [
            ((("plain", "same"), ("plain", "same")), ["same", "same#1"]),
            # a plain label that already holds the first suffix tried
            (
                (("plain", "x"), ("plain", "x#2"), ("plain", "x")),
                ["x", "x#2", "x#3"],
            ),
            # a partitioned submission takes index 3 (after 1 + 2 specs), and
            # an earlier one already holds ``y#3``
            (
                (("plain", "y"), ("partitioned", "y#3"), ("partitioned", "y")),
                ["y", "y#3", "y#4"],
            ),
        ],
        ids=["plain", "plain-suffix-taken", "partitioned-suffix-taken"],
    )
    def test_duplicate_labels_are_disambiguated(self, submissions, expected):
        workload = generate_workload(3)  # local, with a join edge to partition
        server = ShardedQueryServer(
            workload.catalog(),
            workload.sources(),
            quantum_tuples=POLL_STEP_LIMIT,
            polling_interval_seconds=POLLING_INTERVAL,
            start_method="inline",
        )
        labels = [
            server.submit(workload.query, label=label)
            if kind == "plain"
            else server.submit_partitioned(workload.query, 2, label=label)
            for kind, label in submissions
        ]
        assert labels == expected
        report = server.run()
        assert [served.label for served in report.served] + [
            entry.label for entry in report.partitioned
        ] == [
            label
            for (kind, _), label in zip(submissions, labels)
            if kind == "plain"
        ] + [
            label
            for (kind, _), label in zip(submissions, labels)
            if kind == "partitioned"
        ]

    def test_single_use(self):
        server, workload = self._server()
        server.submit(workload.query)
        server.run()
        with pytest.raises(RuntimeError):
            server.run()
        with pytest.raises(RuntimeError):
            server.submit(workload.query)

    def test_report_carries_worker_telemetry(self):
        server, workload = self._server(workers=2)
        server.submit(workload.query)
        server.submit(workload.query)
        report = server.run()
        assert report.workers == 2
        assert report.start_method == "inline"
        assert len(report.worker_summaries) == 2
        assert all(summary.sessions == 1 for summary in report.worker_summaries)

    def test_partitioned_submission_requires_local_edge(self):
        workload = generate_workload(1)  # remote: sources are RemoteSource
        assert workload.remote
        server = ShardedQueryServer(
            workload.catalog(),
            workload.sources(),
            start_method="inline",
        )
        with pytest.raises(ValueError, match="materialized"):
            server.submit_partitioned(workload.query, 2)
