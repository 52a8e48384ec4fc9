"""Unit tests for the batch-at-a-time execution primitives.

The differential table (``test_differential.py``) proves end-to-end
equivalence; these tests pin down the individual batched building blocks —
cursors, hash state, join nodes, the water-filling scheduler, batched
aggregation — including their *counter* equivalence, which the simulated-clock
comparability of the two modes rests on.
"""

from __future__ import annotations

import random

import pytest

from helpers import consumed_counts, node_outputs, tuple_at_a_time

from repro.engine.cost import ExecutionMetrics
from repro.engine.operators.aggregate import GroupAccumulator
from repro.engine.pipelined import PipelinedJoinNode, PipelinedPlan, SourceCursor
from repro.engine.state.hash_table import HashTableState
from repro.optimizer.plans import PlanError
from repro.relational.expressions import Aggregate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.network import ConstantRateNetworkModel, NetworkModel
from repro.sources.remote import RemoteSource
from repro.sources.source import LocalSource


class TestSourceCursorBatching:
    def test_read_batch_drains_in_order(self, people):
        cursor = SourceCursor("people", people, prefetch=2)
        rows, last_arrival = cursor.read_batch(3)
        assert rows == people.rows[:3]
        assert last_arrival == 0.0
        assert cursor.consumed == 3
        rows, _ = cursor.read_batch(100)
        assert rows == people.rows[3:]
        assert cursor.read_batch(5) == ([], None)
        assert cursor.exhausted

    def test_read_batch_interleaves_with_single_reads(self, people):
        cursor = SourceCursor("people", people, prefetch=3)
        first = cursor.read()
        rows, _ = cursor.read_batch(2)
        assert first[0] == people.rows[0]
        assert rows == people.rows[1:3]
        assert cursor.peek_arrival() == 0.0
        assert cursor.consumed == 3

    def test_read_zero_batch_stops_at_positive_arrival(self, people):
        source = RemoteSource(people, ConstantRateNetworkModel(2.0, latency=0.0))
        # Arrivals: 0.0, 0.5, 1.0, ... -> only the first tuple is "free".
        cursor = SourceCursor("people", source)
        assert cursor.read_batch(10, 0.0) == ([people.rows[0]], 0.0)
        assert cursor.consumed == 1
        # The positive-arrival tuple is still there, untouched.
        assert cursor.peek_arrival() == pytest.approx(0.5)
        # A later bound (a later clock reading) admits what has arrived by it.
        rows, last_arrival = cursor.read_batch(10, 1.0)
        assert rows == people.rows[1:3]
        assert last_arrival == pytest.approx(1.0)
        assert cursor.peek_arrival() == pytest.approx(1.5)

    def test_read_zero_batch_respects_quota(self, people):
        cursor = SourceCursor("people", people, prefetch=2)
        assert cursor.read_batch(2, 0.0) == (people.rows[:2], 0.0)
        assert cursor.read_batch(100, 0.0) == (people.rows[2:], 0.0)
        assert cursor.read_batch(1, 0.0) == ([], None)

    def test_empty_relation(self, people_schema):
        empty = Relation("nobody", people_schema, [])
        cursor = SourceCursor("nobody", empty)
        assert cursor.peek_arrival() is None
        assert cursor.read() is None
        assert cursor.read_batch(4) == ([], None)
        assert cursor.exhausted and cursor.consumed == 0


class TestHashTableBatching:
    def _table(self):
        schema = Schema.from_names(["k", "v"])
        return HashTableState(schema, "k")

    def test_insert_batch_matches_sequential_inserts(self):
        rows = [(i % 3, i) for i in range(10)]
        batched, sequential = self._table(), self._table()
        batched.insert_batch(rows)
        for row in rows:
            sequential.insert(row)
        assert len(batched) == len(sequential) == 10
        assert sorted(batched.scan()) == sorted(sequential.scan())
        for key in (0, 1, 2, 99):
            assert batched.probe(key) == sequential.probe(key)

    def test_bucket_map_is_live_view(self):
        table = self._table()
        table.insert((5, "x"))
        assert table.bucket_map()[5] == [(5, "x")]


class TestJoinNodeBatching:
    def _node(self, metrics):
        left = Schema.from_names(["a", "x"])
        right = Schema.from_names(["b", "y"])
        return PipelinedJoinNode(left, right, "a", "b", None, metrics)

    def test_one_batch_matches_single_row_batches(self):
        left_rows = [(i % 4, f"l{i}") for i in range(12)]
        right_rows = [(i % 4, f"r{i}") for i in range(8)]

        row_metrics = ExecutionMetrics()
        row_node = self._node(row_metrics)
        row_out = []
        row_node.sink_batch = row_out.extend
        for row in left_rows:
            row_node.push_batch([row], "left")
        for row in right_rows:
            row_node.push_batch([row], "right")

        batch_metrics = ExecutionMetrics()
        batch_node = self._node(batch_metrics)
        batch_out = []
        batch_node.sink_batch = batch_out.extend
        batch_node.push_batch(left_rows, "left")
        batch_node.push_batch(right_rows, "right")

        assert sorted(batch_out) == sorted(row_out)
        assert batch_node.output_count == row_node.output_count
        assert batch_metrics.as_dict() == row_metrics.as_dict()

    def test_push_batch_intra_batch_probes_do_not_self_match(self):
        # A single-side batch must never join against itself.
        metrics = ExecutionMetrics()
        node = self._node(metrics)
        out = []
        node.sink_batch = out.extend
        node.push_batch([(1, "l1"), (1, "l2")], "left")
        assert out == []
        node.push_batch([(1, "r1")], "right")
        assert sorted(out) == [(1, "l1", 1, "r1"), (1, "l2", 1, "r1")]

    def test_empty_batch_is_free(self):
        metrics = ExecutionMetrics()
        node = self._node(metrics)
        node.push_batch([], "left")
        assert metrics.as_dict() == ExecutionMetrics().as_dict()


class TestZeroQuotas:
    def _simulate(self, counts, budget):
        """Naive least-consumed-first simulation (ties: list order)."""
        counts = list(counts)
        taken = [0] * len(counts)
        for _ in range(budget):
            best = min(range(len(counts)), key=lambda i: (counts[i], i))
            counts[best] += 1
            taken[best] += 1
        return taken

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_naive_simulation(self, seed):
        rng = random.Random(seed)
        counts = [rng.randrange(50) for _ in range(rng.randint(1, 6))]
        budget = rng.randrange(1, 120)
        assert PipelinedPlan._zero_quotas(counts, budget) == self._simulate(
            counts, budget
        )

    def test_exact_budget_distribution(self):
        quotas = PipelinedPlan._zero_quotas([5, 0, 3], 7)
        assert sum(quotas) == 7
        assert quotas == self._simulate([5, 0, 3], 7)


class TestChunkSchedule:
    """On local sources a poll chunk is one schedule, and each of its
    per-leaf groups is one kernel call, whatever the ``batch_size``."""

    @pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
    @pytest.mark.parametrize("priorities", [{}, {"lineitem": 1}])
    def test_one_schedule_per_chunk_matches_the_oracle(
        self, tiny_tpch, engine_mode, priorities
    ):
        from repro.optimizer.plans import JoinTree
        from repro.workloads.queries import query_3a

        query = query_3a()
        tree = JoinTree.left_deep(["lineitem", "orders", "customer"])

        def build(batch_size, mode):
            cursors = {
                name: SourceCursor(name, tiny_tpch.relations[name])
                for name in query.relations
            }
            plan = PipelinedPlan(
                query,
                tree,
                cursors,
                lambda rows: None,
                batch_size=batch_size,
                engine_mode=mode,
            )
            plan.read_priorities = dict(priorities)
            return plan

        tuple_plan, plan = build(None, "interpreted"), build(64, engine_mode)
        calls, groups = [], []
        read_schedule = plan._read_schedule

        def scheduling(budget, ready):
            scheduled = read_schedule(budget, ready)
            groups.extend(len(rows) for _, rows in scheduled)
            return scheduled

        plan._read_schedule = scheduling

        def recording(kernel):
            def run(rows):
                calls.append(len(rows))
                kernel(rows)
            return run

        plan._kernels = {
            relation: recording(kernel)
            for relation, kernel in plan._build_kernels().items()
        }
        chunks = 0
        while True:
            batches = plan.metrics.batches_read
            ran = plan.run_chunk(200)
            with tuple_at_a_time():
                assert tuple_plan.run_chunk(200) == ran
            if ran == 0:
                break
            chunks += 1
            assert plan.metrics.batches_read == batches + 1
            assert consumed_counts(plan) == consumed_counts(tuple_plan)
            counters = plan.metrics.as_dict()
            tuple_counters = tuple_plan.metrics.as_dict()
            del counters["batches_read"], tuple_counters["batches_read"]
            assert counters == tuple_counters
            assert node_outputs(plan) == node_outputs(tuple_plan)
            assert repr(plan.clock.now) == repr(tuple_plan.clock.now)
        assert chunks > 1
        # every scheduled group was one kernel call, some longer than a batch
        assert calls == groups
        assert max(calls) > plan.batch_size


class TestGroupAccumulatorBatch:
    def _accumulators(self, aggregates):
        schema = Schema.from_names(["g", "v"])
        return (
            GroupAccumulator(schema, ("g",), aggregates, metrics=ExecutionMetrics()),
            GroupAccumulator(schema, ("g",), aggregates, metrics=ExecutionMetrics()),
        )

    @pytest.mark.parametrize(
        "aggregates",
        [
            (Aggregate("sum", "v", "s"),),
            (Aggregate("count", None, "c"),),
            (Aggregate("sum", "v", "s"), Aggregate("max", "v", "m")),
        ],
    )
    def test_one_batch_matches_single_row_batches(self, aggregates):
        rows = [(i % 3, i * 10) for i in range(11)]
        tuple_acc, batch_acc = self._accumulators(aggregates)
        for row in rows:
            tuple_acc.accumulate_batch([row])
        batch_acc.accumulate_batch(rows)
        assert sorted(batch_acc.results()) == sorted(tuple_acc.results())
        assert (
            batch_acc.metrics.aggregate_updates == tuple_acc.metrics.aggregate_updates
        )


class TestRemoteSourceScheduleCache:
    class CountingNetwork(NetworkModel):
        def __init__(self):
            self.calls = 0

        def arrival_times(self, tuple_count):
            self.calls += 1
            for i in range(tuple_count):
                yield i * 0.125

    def test_schedule_computed_once_across_opens(self, people):
        network = self.CountingNetwork()
        source = RemoteSource(people, network)
        first = [arrival for _, arrival in source.open_stream()]
        second = [arrival for _, arrival in source.open_stream()]
        batched = [
            arrival
            for rows, arrivals in source.open_stream_columns(2)
            for arrival in arrivals or [0.0] * len(rows)
        ]
        assert first == second == batched
        assert network.calls == 1, "arrival schedule must be cached per source"

    def test_batched_and_streamed_reads_agree(self, people):
        source = RemoteSource(people, ConstantRateNetworkModel(8.0))
        streamed = list(source.open_stream())
        chunks = list(source.open_stream_columns(2))
        assert [
            item
            for rows, arrivals in chunks
            for item in zip(rows, arrivals or [0.0] * len(rows))
        ] == streamed
        assert all(len(rows) <= 2 for rows, _arrivals in chunks)


class TestIntegrationSystemBatchKnob:
    @pytest.mark.parametrize("strategy", ["static", "corrective", "plan_partitioning"])
    def test_batch_size_threads_through_every_strategy(
        self, strategy, people, simple_orders
    ):
        from repro.integration.system import AdaptiveIntegrationSystem
        from repro.relational.algebra import SPJAQuery
        from repro.relational.expressions import JoinPredicate

        query = SPJAQuery(
            name="po",
            relations=("people", "simple_orders"),
            join_predicates=(
                JoinPredicate("people", "pid", "simple_orders", "o_pid"),
            ),
        )

        def build():
            system = AdaptiveIntegrationSystem()
            system.register_source(people)
            system.register_source(simple_orders)
            return system

        tuple_answer = build().execute(query, strategy=strategy)
        batched_answer = build().execute(query, strategy=strategy, batch_size=16)
        assert sorted(batched_answer.rows) == sorted(tuple_answer.rows)
        assert batched_answer.simulated_seconds == tuple_answer.simulated_seconds


class TestValidation:
    def test_plan_rejects_non_positive_batch_size(self, people):
        from repro.relational.algebra import SPJAQuery
        from repro.optimizer.plans import JoinTree

        query = SPJAQuery("one", ("people",), ())
        cursors = {"people": SourceCursor("people", people)}
        with pytest.raises(PlanError):
            PipelinedPlan(
                query,
                JoinTree.leaf("people"),
                cursors,
                lambda rows: None,
                batch_size=0,
            )

    def test_open_stream_columns_rejects_bad_arguments(self, people):
        source = LocalSource(people)
        with pytest.raises(ValueError):
            source.open_stream_columns(0)
        with pytest.raises(ValueError):
            source.open_stream_columns(8, offset=-1)
        remote = RemoteSource(people)
        with pytest.raises(ValueError):
            remote.open_stream_columns(-1)
        with pytest.raises(ValueError):
            remote.open_stream_columns(8, offset=-1)
