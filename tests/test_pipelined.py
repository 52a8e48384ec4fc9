"""Tests for the push-based pipelined hash-join network."""

from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_same_aggregates,
    assert_same_bag,
    consumed_counts,
    node_outputs,
    reference_spja,
    tuple_at_a_time,
)
from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.pipelined import PipelinedExecutor, PipelinedPlan, SourceCursor
from repro.engine.state.registry import StateRegistry, expression_signature
from repro.optimizer.plans import JoinTree, PlanError
from repro.relational.algebra import SPJAQuery
from repro.relational.expressions import (
    AttributeRef,
    Comparison,
    Constant,
    JoinPredicate,
    Predicate,
)
from repro.relational.schema import Schema
from repro.sources.network import BurstyNetworkModel, ConstantRateNetworkModel
from repro.sources.remote import RemoteSource
from repro.sources.source import DataSource, column_chunks
from repro.workloads.queries import query_3a


def simple_join_query():
    return SPJAQuery(
        name="po",
        relations=("people", "simple_orders"),
        join_predicates=(JoinPredicate("people", "pid", "simple_orders", "o_pid"),),
    )


class TestSourceCursor:
    def test_sequential_reads_and_exhaustion(self, people):
        cursor = SourceCursor("people", people)
        rows = []
        while True:
            item = cursor.read()
            if item is None:
                break
            rows.append(item[0])
        assert rows == people.rows
        assert cursor.consumed == len(people)
        assert cursor.exhausted
        assert cursor.peek_arrival() is None

    def test_peek_does_not_consume(self, people):
        cursor = SourceCursor("people", people)
        assert cursor.peek_arrival() == 0.0
        assert cursor.consumed == 0
        cursor.read()
        assert cursor.consumed == 1

    def test_remote_source_arrival_times(self, people):
        source = RemoteSource(people, ConstantRateNetworkModel(tuples_per_second=2.0))
        cursor = SourceCursor("people", source)
        first = cursor.read()
        second = cursor.read()
        assert first[1] == pytest.approx(0.0)
        assert second[1] == pytest.approx(0.5)


class TestPipelinedPlan:
    def test_two_way_join_matches_reference(self, people, simple_orders):
        query = simple_join_query()
        sources = {"people": people, "simple_orders": simple_orders}
        executor = PipelinedExecutor(sources)
        rows, plan = executor.execute(query, JoinTree.left_deep(["people", "simple_orders"]))
        assert_same_bag(rows, reference_spja(query, sources))
        assert plan.output.count == len(rows)

    def test_selection_applied_at_leaf(self, people, simple_orders):
        query = SPJAQuery(
            name="po_sel",
            relations=("people", "simple_orders"),
            join_predicates=(JoinPredicate("people", "pid", "simple_orders", "o_pid"),),
            selections={"people": Comparison(AttributeRef("city"), "=", Constant("london"))},
        )
        sources = {"people": people, "simple_orders": simple_orders}
        rows, plan = PipelinedExecutor(sources).execute(
            query, JoinTree.left_deep(["people", "simple_orders"])
        )
        assert_same_bag(rows, reference_spja(query, sources))
        assert plan.leaf_counts()["people"] == 2  # only londoners buffered

    def test_single_relation_query(self, people):
        query = SPJAQuery(
            name="only_people",
            relations=("people",),
            join_predicates=(),
            selections={"people": Comparison(AttributeRef("age"), ">", Constant(40))},
        )
        rows, plan = PipelinedExecutor({"people": people}).execute(query, JoinTree.leaf("people"))
        assert len(rows) == 4
        assert plan.sources_exhausted

    def test_aggregation_query_on_tpch(self, tiny_tpch):
        query = query_3a()
        sources = tiny_tpch.as_sources()
        tree = JoinTree.join(
            JoinTree.join(JoinTree.leaf("customer"), JoinTree.leaf("orders")),
            JoinTree.leaf("lineitem"),
        )
        rows, _plan = PipelinedExecutor(sources).execute(query, tree)
        assert_same_aggregates(rows, reference_spja(query, sources))

    def test_bushy_and_leftdeep_trees_agree(self, tiny_tpch):
        query = query_3a()
        sources = tiny_tpch.as_sources()
        left_deep = JoinTree.left_deep(["customer", "orders", "lineitem"])
        bushy = JoinTree.join(
            JoinTree.leaf("lineitem"),
            JoinTree.join(JoinTree.leaf("customer"), JoinTree.leaf("orders")),
        )
        rows_a, _ = PipelinedExecutor(sources).execute(query, left_deep)
        rows_b, _ = PipelinedExecutor(sources).execute(query, bushy)
        assert_same_aggregates(rows_a, rows_b)

    def test_tree_must_cover_query(self, people, simple_orders):
        query = simple_join_query()
        cursors = {
            "people": SourceCursor("people", people),
            "simple_orders": SourceCursor("simple_orders", simple_orders),
        }
        with pytest.raises(PlanError):
            PipelinedPlan(query, JoinTree.leaf("people"), cursors, lambda rows: None)

    def test_step_granularity_and_suspension(self, people, simple_orders):
        query = simple_join_query()
        cursors = {
            "people": SourceCursor("people", people),
            "simple_orders": SourceCursor("simple_orders", simple_orders),
        }
        collected = []
        plan = PipelinedPlan(
            query,
            JoinTree.left_deep(["people", "simple_orders"]),
            cursors,
            collected.extend,
        )
        assert plan.run_chunk(3) == 3
        assert not plan.sources_exhausted
        # Resume and finish.
        plan.run()
        assert plan.sources_exhausted
        assert len(collected) == 6

    def test_observed_selectivities_and_counts(self, people, simple_orders):
        query = simple_join_query()
        sources = {"people": people, "simple_orders": simple_orders}
        _rows, plan = PipelinedExecutor(sources).execute(
            query, JoinTree.left_deep(["people", "simple_orders"])
        )
        selectivities = plan.observed_selectivities()
        key = frozenset({"people", "simple_orders"})
        expected = 6 / (len(people) * len(simple_orders))
        assert selectivities[key] == pytest.approx(expected)
        assert node_outputs(plan)[key] == 6

    def test_register_state(self, people, simple_orders):
        query = simple_join_query()
        sources = {"people": people, "simple_orders": simple_orders}
        _rows, plan = PipelinedExecutor(sources).execute(
            query, JoinTree.left_deep(["people", "simple_orders"])
        )
        registry = StateRegistry()
        plan.register_state(registry)
        people_partition = registry.get(expression_signature([("people", 0)]))
        orders_partition = registry.get(expression_signature([("simple_orders", 0)]))
        assert people_partition.cardinality == len(people)
        assert orders_partition.cardinality == len(simple_orders)

    def test_clock_and_metrics_accumulate(self, people, simple_orders):
        query = simple_join_query()
        sources = {"people": people, "simple_orders": simple_orders}
        metrics = ExecutionMetrics()
        clock = SimulatedClock()
        PipelinedExecutor(sources).execute(query, JoinTree.left_deep(["people", "simple_orders"]), clock=clock, metrics=metrics)
        assert metrics.tuples_read == len(people) + len(simple_orders)
        assert clock.now > 0.0

    def test_availability_driven_scheduling_prefers_arrived_tuples(self, people, simple_orders):
        # people arrive slowly, orders instantly: the plan should drain orders
        # while waiting instead of stalling on people.
        slow_people = RemoteSource(people, ConstantRateNetworkModel(tuples_per_second=1.0))
        query = simple_join_query()
        sources = {"people": slow_people, "simple_orders": simple_orders}
        clock = SimulatedClock()
        _rows, plan = PipelinedExecutor(sources).execute(
            query, JoinTree.left_deep(["people", "simple_orders"]), clock=clock
        )
        # All orders must have been consumed before the last (slowest) person
        # arrived; total time is dominated by the 4-second people transfer.
        assert clock.now >= 4.0
        assert plan.leaf_counts()["simple_orders"] == len(simple_orders)


# -- the clock oracle against a from-scratch statement of the rule ---------------


class ScheduledSource(DataSource):
    """Rows with an explicit (non-decreasing) arrival schedule."""

    def __init__(self, schema, rows, arrivals):
        super().__init__("scheduled", schema)
        self.rows = list(rows)
        self.arrivals = list(arrivals)

    def _stream_columns(self, batch_size, offset, start_at):
        return column_chunks(self.rows[offset:], self.arrivals[offset:], batch_size)


class CountingCursor(SourceCursor):
    """Logs the relation of every tuple consumed by ``read`` (the rule's
    one-at-a-time reads) and counts the scheduler's calls."""

    def __init__(self, name, source, prefetch, log):
        super().__init__(name, source, prefetch=prefetch)
        self.log = log
        self.peeks = 0
        self.fills_when_exhausted = 0

    def peek_arrival(self):
        self.peeks += 1
        return super().peek_arrival()

    def _fill(self):
        if self.exhausted:
            self.fills_when_exhausted += 1
        return super()._fill()

    def read(self):
        item = super().read()
        if item is not None:
            self.log.append(self.name)
        return item


def chain_query(leaves: int, selective: bool) -> SPJAQuery:
    """r0 ⋈ r1 ⋈ ... on a shared small-domain key, optionally filtering r0."""
    names = [f"r{i}" for i in range(leaves)]
    selections = {}
    if selective:
        selections["r0"] = Comparison(AttributeRef("r0_v"), "<", Constant(2))
    return SPJAQuery(
        name="chain",
        relations=tuple(names),
        join_predicates=tuple(
            JoinPredicate(a, f"{a}_k", b, f"{b}_k") for a, b in zip(names, names[1:])
        ),
        selections=selections,
    )


def build_plan(query, streams, prefetch, cost_model, log, **engine):
    """A plan (the default engine unless ``engine`` says otherwise) over
    fresh counting cursors; returns (plan, outputs)."""
    cursors = {}
    for name, (rows, arrivals) in streams.items():
        schema = Schema.from_names([f"{name}_k", f"{name}_v"], relation=name)
        cursors[name] = CountingCursor(
            name, ScheduledSource(schema, rows, arrivals), prefetch, log
        )
    outputs = []
    plan = PipelinedPlan(
        query,
        JoinTree.left_deep(list(query.relations)),
        cursors,
        outputs.extend,
        cost_model=cost_model,
        **engine,
    )
    return plan, outputs


class RuleOracle:
    """Section 4.1, from scratch: every step scans every leaf for the minimum
    ``(arrival, priority, consumed, leaf index)``, charges the work accrued so
    far through ``metrics.work``, reads, waits for the arrival, propagates.
    It borrows a plan's join network and nothing of its scheduling."""

    def __init__(self, plan):
        self.plan = plan
        self.charged = 0.0

    def sync(self):
        work = self.plan.metrics.work(self.plan.cost_model)
        if work > self.charged:
            self.plan.clock.charge(work, self.charged)
            self.charged = work

    def run_chunk(self, max_tuples):
        plan = self.plan
        ran = 0
        while ran < max_tuples:
            best = None
            for index, (name, binding) in enumerate(plan.leaves.items()):
                cursor = plan.cursors[name]
                arrival = cursor.peek_arrival()
                if arrival is None:
                    continue
                key = (arrival, plan.read_priorities.get(name, 0), cursor.consumed, index)
                if best is None or key < best[0]:
                    best = (key, cursor, binding)
            if best is None:
                break
            _, cursor, binding = best
            self.sync()
            row, arrival = cursor.read()
            plan.clock.wait_until(arrival)
            ran += 1
            plan.metrics.tuples_read += 1
            if binding.selection_fn is not None:
                plan.metrics.predicate_evals += 1
                if not binding.selection_fn(row):
                    continue
            binding.node.push_batch([row], binding.side)
        self.sync()
        return ran


ABLATION_WEIGHTS = CostModel(
    hash_probe=1.3, predicate_eval=0.1, tuple_copy=0.7, tuple_output=0.3
)

arrival_steps = st.sampled_from([0.0, 0.0, 0.0, 0.25, 1.0, 3.5])


@st.composite
def schedules(draw, min_size=0):
    """(rows, arrivals): arrivals non-decreasing, with zeros and ties."""
    size = draw(st.integers(min_size, 12))
    rows = [(draw(st.integers(0, 3)), draw(st.integers(0, 3))) for _ in range(size)]
    arrivals, at = [], draw(st.sampled_from([0.0, 0.0, 0.5]))
    for _ in range(size):
        at += draw(arrival_steps)
        arrivals.append(at)
    return rows, arrivals


@st.composite
def plateau_schedules(draw):
    """(rows, arrivals): runs of 1–9 equal positive arrivals on a coarse grid
    — what a backed-off envelope delivers (one stamp per chunk segment) — so
    two leaves share a plateau value often and ties are drawn all the time."""
    arrivals, at = [], draw(st.sampled_from([0.0, 0.5, 1.0]))
    for _ in range(draw(st.integers(0, 3))):
        at += draw(st.sampled_from([0.0, 0.5, 0.5, 1.0]))
        arrivals += [at] * draw(st.integers(1, 9))
    rows = [(draw(st.integers(0, 3)), draw(st.integers(0, 3))) for _ in arrivals]
    return rows, arrivals


@st.composite
def drive_cases(draw, stream=schedules(), max_leaves=5):
    leaves = draw(st.integers(2, max_leaves))
    names = [f"r{i}" for i in range(leaves)]
    streams = {name: draw(stream) for name in names}
    chunks = draw(
        st.lists(
            st.tuples(
                st.integers(1, 7),
                st.dictionaries(st.sampled_from(names), st.integers(0, 2)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    failover = (
        draw(st.integers(0, len(chunks) - 1)),
        draw(st.sampled_from(names)),
        draw(schedules())[1],
    )
    return {
        "query": chain_query(leaves, draw(st.booleans())),
        "streams": streams,
        "prefetch": draw(st.integers(1, 4)),
        "cost_model": draw(st.sampled_from([CostModel(), ABLATION_WEIGHTS])),
        "chunks": chunks,
        "failover": failover,
    }


def fail_over(case, plans):
    """Mirror failover between chunks, on every plan alike: the drawn
    relation, opened at the consumed offset, on another schedule (the
    consumed rows' arrivals are never read)."""
    _, name, arrivals = case["failover"]
    rows = case["streams"][name][0]
    for plan in plans:
        cursor = plan.cursors[name]
        rest = len(rows) - cursor.consumed
        schedule = (
            [0.0] * cursor.consumed
            + arrivals[:rest]
            + [99.0] * (rest - len(arrivals))
        )
        cursor.failover_to(ScheduledSource(cursor.schema, rows, schedule), None)


class TestTupleOracle:
    """``helpers.tuple_schedule``, the clock oracle every differential holds
    the engine to, reads exactly what the rule stated from scratch reads."""

    @settings(max_examples=120, deadline=None)
    @given(case=drive_cases())
    def test_oracle_equals_the_rule_stated_from_scratch(self, case):
        query, streams = case["query"], case["streams"]
        oracle_log, rule_log = [], []
        plan, outputs = build_plan(
            query,
            streams,
            case["prefetch"],
            case["cost_model"],
            oracle_log,
            engine_mode="interpreted",
        )
        rule_plan, rule_outputs = build_plan(
            query, streams, case["prefetch"], case["cost_model"], rule_log
        )
        rule = RuleOracle(rule_plan)
        fail_at = case["failover"][0]

        # The drawn chunks, then chunks until everything is drained.
        chunks = case["chunks"] + [(5, {})] * 13
        with tuple_at_a_time():
            for index, (size, priorities) in enumerate(chunks):
                if index == fail_at:
                    fail_over(case, (plan, rule_plan))
                # The controller replaces the dict, it never edits it in place.
                plan.read_priorities = dict(priorities)
                rule_plan.read_priorities = dict(priorities)
                read_before = plan.statistics.tuples_read
                ran = plan.run_chunk(size)
                assert ran == rule.run_chunk(size)
                assert plan.statistics.tuples_read - read_before == ran
                assert oracle_log == rule_log
                assert consumed_counts(plan) == consumed_counts(rule_plan)
                expected = rule_plan.metrics.as_dict()
                expected["batches_read"] = plan.metrics.batches_read
                assert plan.metrics.as_dict() == expected
                assert plan.clock.now == rule_plan.clock.now
                assert plan.clock.wait_time == rule_plan.clock.wait_time
                assert outputs == rule_outputs
        assert plan.sources_exhausted and rule_plan.sources_exhausted
        assert len(oracle_log) == sum(len(rows) for rows, _ in streams.values())


class TestStep:
    @settings(max_examples=60, deadline=None)
    @given(
        counters=st.lists(st.integers(0, 10**9), min_size=9, max_size=9),
        weights=st.lists(
            st.floats(0.0, 4.0, allow_nan=False), min_size=8, max_size=8
        ),
        delay=st.sampled_from([None, 0.0, 0.5]),
    )
    def test_a_step_charges_exactly_metrics_work(self, counters, weights, delay):
        """What a step charges ``==`` ``work(model)`` for arbitrary counters
        and a non-default model (the ablations override weights): after a
        step and the phase's closing sync, a clock that started at zero and
        did not stall reads exactly ``work * seconds_per_unit``.  A local
        tuple (``delay`` None) is priced by that sync alone.  Otherwise the
        tuple arrives ``delay`` after the preset work's time, past the clock's
        reading of zero, so the step prices the preset work before it stalls,
        and the stall starts from exactly that work's time."""
        model = CostModel(*weights)
        spu = model.seconds_per_unit
        preset = ExecutionMetrics(*counters).work(model)
        priced = preset * spu
        arrival = 0.0 if delay is None else priced + delay
        plan, _ = build_plan(
            chain_query(2, selective=False),
            {"r0": ([(0, 0)], [arrival]), "r1": ([], [])},
            1,
            model,
            [],
        )
        for name, value in zip(plan.metrics.as_dict(), counters):
            setattr(plan.metrics, name, value)
        assert plan.step_batch() == 1
        assert plan.clock.now == arrival
        assert plan.clock.wait_time == max(arrival - priced, 0.0)
        plan.finish_phase()
        work = plan.metrics.work(model)
        if delay:
            # The stall re-anchored the clock at the arrival.
            assert plan.clock.now == arrival + (work - preset) * spu
        else:
            assert plan.clock.now == work * spu

    def test_work_is_priced_only_where_a_stall_can_start(self, monkeypatch):
        """A chunk calls ``ExecutionMetrics.work`` where a stall can start
        and in its closing sync, not once per tuple: over local sources the
        count per chunk does not grow with the tuples read, and over plateaus
        of equal arrivals it is at most one per stall plus the closing
        calls."""
        calls, stalls = [], []
        work, wait_until = ExecutionMetrics.work, SimulatedClock.wait_until

        def counted_work(metrics, model=None):
            calls.append(None)
            return work(metrics, model)

        def counted_wait(clock, arrival):
            stalled = wait_until(clock, arrival)
            if stalled:
                stalls.append(stalled)
            return stalled

        monkeypatch.setattr(ExecutionMetrics, "work", counted_work)
        monkeypatch.setattr(SimulatedClock, "wait_until", counted_wait)

        def chunk_counts(arrivals, lag, sizes):
            rows = [(1, i) for i in range(len(arrivals))]
            streams = {"r0": (rows, arrivals), "r1": (rows, [a + lag for a in arrivals])}
            plan, _ = build_plan(chain_query(2, selective=False), streams, 4, CostModel(), [])
            counts = []
            for size in sizes:
                del calls[:], stalls[:]
                assert plan.run_chunk(size) == size
                counts.append((len(calls), len(stalls)))
            return counts

        local = chunk_counts([0.0] * 30, 0.0, [1, 2, 40])
        closing = local[0][0]
        assert local == [(closing, 0)] * 3
        plateaus = [float(at) for at in range(1, 4) for _ in range(10)]
        counts = chunk_counts(plateaus, 0.5, [25, 35])
        for priced, stalled in counts:
            assert 0 < stalled and priced <= stalled + closing

    def test_chunks_of_one_read_the_rule_tuple_by_tuple(self):
        """A budget of one tuple is the rule's single step: chunk by chunk
        the plan reads from the leaf the rule reads from, and its clock,
        rows and tuple count agree with the rule's after every one."""
        streams = {
            "r0": ([(1, 0), (2, 5), (1, 1)], [0.0, 0.0, 2.0]),
            "r1": ([(1, 7), (1, 8)], [0.0, 1.0]),
        }
        query = chain_query(2, selective=True)
        rule_log = []
        plan, outputs = build_plan(query, streams, 2, CostModel(), [])
        rule_plan, rule_outputs = build_plan(query, streams, 2, CostModel(), rule_log)
        rule = RuleOracle(rule_plan)
        while plan.run_chunk(1):
            assert rule.run_chunk(1) == 1
            assert consumed_counts(plan) == consumed_counts(rule_plan)
            assert plan.clock.now == rule_plan.clock.now
            assert plan.clock.wait_time == rule_plan.clock.wait_time
        assert rule.run_chunk(1) == 0
        assert rule_log == ["r0", "r1", "r0", "r1", "r0"]
        assert outputs == rule_outputs == [(1, 0, 1, 7), (1, 0, 1, 8), (1, 1, 1, 7), (1, 1, 1, 8)]
        assert plan.statistics.tuples_read == 5

    @pytest.mark.parametrize(
        "engine", [{"engine_mode": "interpreted"}, {}], ids=["interpreted", "compiled"]
    )
    def test_an_error_mid_chunk_leaves_the_accounting_consistent(self, engine):
        """A sink (or predicate, or source) that raises must not lose the
        chunk's tuple count or leave charged work un-noted: the next sync
        would charge it to the clock a second time.  The sink raises inside
        the second group's kernel call.  The interpreted kernel charges a
        group as it starts, the compiled one in a ``finally`` as it ends, so
        both charge all six tuples."""
        streams = {
            "r0": ([(1, 0), (1, 1), (1, 2)], [0.0] * 3),
            "r1": ([(1, 7), (1, 8), (1, 9)], [0.0] * 3),
        }
        plan, _ = build_plan(
            chain_query(2, selective=False), streams, 2, ABLATION_WEIGHTS, [], **engine
        )

        def sink(rows):
            raise RuntimeError("sink full")

        plan.output.sink_batch = sink
        with pytest.raises(RuntimeError, match="sink full"):
            plan.run_chunk(6)
        assert sum(cursor.consumed for cursor in plan.cursors.values()) == 6
        assert plan.statistics.tuples_read == plan.metrics.tuples_read == 6
        # Both kernels leave the same counters: the 3 x 3 join outputs that
        # reached the sink are charged.
        assert plan.metrics.as_dict() == {
            "tuples_read": 6,
            "hash_inserts": 6,
            "hash_probes": 6,
            "comparisons": 0,
            "predicate_evals": 0,
            "tuple_copies": 9,
            "aggregate_updates": 0,
            "tuples_output": 9,
            "batches_read": 1,
        }
        plan.finish_phase()
        assert plan.clock.now == pytest.approx(
            plan.metrics.work(ABLATION_WEIGHTS) * ABLATION_WEIGHTS.seconds_per_unit,
            rel=1e-12,
        )

    @pytest.mark.parametrize(
        "engine", [{"engine_mode": "interpreted"}, {}], ids=["interpreted", "compiled"]
    )
    def test_a_selection_that_raises_leaves_both_kernels_the_same_accounting(
        self, engine
    ):
        """A selection that raises on the last row of the first group: the
        error reaches the caller unchanged (the compiled chain's ``finally``
        reads only tallies its prologue zeroed), and both kernels charge
        the group's reads and predicate evaluations and nothing else."""

        @dataclass(frozen=True)
        class RaisingSelection(Predicate):
            def compile(self, schema):
                position = schema.position("r0_v")

                def test(row):
                    if row[position] == 2:
                        raise RuntimeError("bad row")
                    return True

                return test

            def attributes(self):
                return frozenset({"r0_v"})

            def estimated_selectivity(self):
                return 1.0

        streams = {
            "r0": ([(1, 0), (1, 1), (1, 2)], [0.0] * 3),
            "r1": ([(1, 7), (1, 8), (1, 9)], [0.0] * 3),
        }
        query = replace(
            chain_query(2, selective=False), selections={"r0": RaisingSelection()}
        )
        plan, outputs = build_plan(query, streams, 2, ABLATION_WEIGHTS, [], **engine)
        with pytest.raises(RuntimeError, match="bad row"):
            plan.run_chunk(6)
        assert outputs == []
        assert plan.statistics.tuples_read == plan.metrics.tuples_read == 3
        assert plan.metrics.as_dict() == {
            "tuples_read": 3,
            "hash_inserts": 0,
            "hash_probes": 0,
            "comparisons": 0,
            "predicate_evals": 3,
            "tuple_copies": 0,
            "aggregate_updates": 0,
            "tuples_output": 0,
            "batches_read": 1,
        }
        plan.finish_phase()
        assert plan.clock.now == pytest.approx(
            plan.metrics.work(ABLATION_WEIGHTS) * ABLATION_WEIGHTS.seconds_per_unit,
            rel=1e-12,
        )

    def test_one_peek_per_step_and_none_into_an_exhausted_cursor(self):
        """Guards the work removed: the old step rescanned every leaf per
        tuple (5.4 peeks a step on the benchmark's queries) and called
        ``_fill`` on every drained cursor each time."""
        sizes = {"r0": 3, "r1": 40, "r2": 7, "r3": 1}
        streams = {
            name: ([(i % 3, i % 4) for i in range(size)], [0.0] * size)
            for name, size in sizes.items()
        }
        plan, _ = build_plan(chain_query(4, selective=False), streams, 4, CostModel(), [])
        cursors = list(plan.cursors.values())
        chunks = steps = 0
        while True:
            ran = plan.run_chunk(6)
            chunks += 1
            steps += ran
            if ran == 0:
                break
        assert steps == sum(sizes.values())
        assert sum(c.peeks for c in cursors) <= steps + len(cursors) * chunks
        assert [c.fills_when_exhausted for c in cursors] == [0, 0, 0, 0]
        # ... and a peek of a drained cursor does not reach _fill at all.
        assert all(c.exhausted and c.peek_arrival() is None for c in cursors)
        assert [c.fills_when_exhausted for c in cursors] == [0, 0, 0, 0]

    def test_failed_over_cursor_peeks_its_new_stream(self, people):
        """``exhausted`` short-circuits ``peek_arrival``; failover must clear it."""
        cursor = SourceCursor("people", people)
        while cursor.read() is not None:
            pass
        assert cursor.exhausted and cursor.peek_arrival() is None
        # the mirror has grown two rows since (sources may change between
        # accesses, Section 3.5): they are all a failover re-opens
        grown = ScheduledSource(
            people.schema, people.rows + people.rows[:2], [0.0] * len(people) + [4.0, 6.0]
        )
        cursor.failover_to(grown, None)
        assert cursor.peek_arrival() == 4.0
        assert cursor.read() == (people.rows[0], 4.0)
        assert cursor.consumed == len(people) + 1


# -- the batch scheduler's bisected runs against the same rule --------------------


class TestBisectedRun:
    """`_read_schedule` cuts each run out of the arrival column with bisects;
    the contract is unchanged: a batch consumes exactly what the rule would
    have consumed, tuple by tuple, from every source."""

    @pytest.mark.parametrize("engine_mode", ["interpreted", "compiled"])
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    @settings(max_examples=25, deadline=None)
    @given(
        case=st.one_of(
            drive_cases(), drive_cases(plateau_schedules(), max_leaves=3)
        )
    )
    def test_batches_consume_what_the_rule_consumes(
        self, case, batch_size, engine_mode
    ):
        query, streams = case["query"], case["streams"]
        plan, outputs = build_plan(
            query,
            streams,
            case["prefetch"],
            case["cost_model"],
            [],
            batch_size=batch_size,
            engine_mode=engine_mode,
        )
        rule_plan, rule_outputs = build_plan(
            query, streams, case["prefetch"], case["cost_model"], []
        )
        oracle = RuleOracle(rule_plan)
        total = sum(len(rows) for rows, _ in streams.values())
        chunks = case["chunks"] + [(5, {})] * (total // 5 + 1)
        for index, (size, priorities) in enumerate(chunks):
            if index == case["failover"][0]:
                fail_over(case, (plan, rule_plan))
            plan.read_priorities = dict(priorities)
            rule_plan.read_priorities = dict(priorities)
            ran = plan.run_chunk(size)
            assert ran == oracle.run_chunk(size)
            assert consumed_counts(plan) == consumed_counts(rule_plan)
            expected = rule_plan.metrics.as_dict()
            expected["batches_read"] = plan.metrics.batches_read
            assert plan.metrics.as_dict() == expected
            assert sorted(outputs) == sorted(rule_outputs)
            # A batch reads only what has arrived and stalls where the rule
            # does, after the same work: the same clock, on every source.
            assert repr(plan.clock.now) == repr(rule_plan.clock.now)
        assert plan.sources_exhausted and rule_plan.sources_exhausted

    def test_a_run_stops_inside_a_plateau_at_the_runner_ups_count(self):
        """Equal arrivals and priorities: the rule falls through to the
        consumed counts, so a leaf four tuples behind reads exactly four of
        its plateau — not the plateau, not the budget — and then the two
        alternate, leaf order first."""
        rows = [(i % 3, i) for i in range(12)]
        streams = {
            "r0": (rows, [0.0] * 4 + [2.0] * 8),
            "r1": (rows, [2.0] * 12),
        }
        plan, _ = build_plan(
            chain_query(2, selective=False), streams, 64, CostModel(), [], batch_size=64
        )
        assert plan.run_chunk(4) == 4
        assert consumed_counts(plan) == {"r0": 4, "r1": 0}
        assert plan.run_chunk(5) == 5
        assert consumed_counts(plan) == {"r0": 5, "r1": 4}
        assert plan.run_chunk(3) == 3
        assert consumed_counts(plan) == {"r0": 6, "r1": 6}
        # a demoted leaf gives way for the whole shared plateau
        plan.read_priorities = {"r0": 1}
        assert plan.run_chunk(64) == 12
        assert consumed_counts(plan) == {"r0": 12, "r1": 12}
        assert plan.sources_exhausted

    def test_a_plateau_costs_a_bounded_number_of_peeks(self):
        """Guards the work removed: the run extension used to peek, rank and
        read every tuple of a plateau (38 274 peeks for 34 k rows a benchmark
        round); a run is now a few bisects whatever its length."""
        plateau = [(i % 3, i) for i in range(64)]
        streams = {
            "r0": (plateau, [1.0] * 64),
            "r1": ([(0, 0), (1, 1)], [1.5, 2.0]),
        }
        plan, _ = build_plan(
            chain_query(2, selective=False), streams, 64, CostModel(), [], batch_size=64
        )
        assert plan.run_chunk(64) == 64
        assert consumed_counts(plan) == {"r0": 64, "r1": 0}
        assert sum(cursor.peeks for cursor in plan.cursors.values()) <= 8


# -- a blocking run's poll window against the chunk loop it replaces --------------


class TestPollWindow:
    """``run_chunk(n, until=t)`` runs the chunks a loop of ``run_chunk(n)``
    calls, checking the clock between them, runs: the same chunk boundaries,
    so every window ends in the same state."""

    CHUNK = 37
    WINDOW = 0.04

    @staticmethod
    def chunk_loop(plan, size, until):
        """The blocking loop a corrective run took per window; returns
        (tuples, chunks)."""
        total = chunks = 0
        while True:
            ran = plan.run_chunk(size)
            total += ran
            chunks += 1
            if plan.clock.now >= until or plan.sources_exhausted or ran == 0:
                return total, chunks

    @pytest.mark.parametrize("priorities", [{}, {"lineitem": 1}], ids=["fair", "demoted"])
    @pytest.mark.parametrize("remote", [False, True], ids=["local", "bursty"])
    @pytest.mark.parametrize(
        "engine",
        [
            {},
            {"batch_size": 1},
            {"batch_size": 7},
            {"batch_size": 64},
            {"batch_size": 64, "engine_mode": "compiled"},
        ],
        ids=["default", "batch1", "batch7", "batch64", "compiled64"],
    )
    def test_a_window_ends_where_the_chunk_loop_ends(
        self, tiny_tpch, engine, remote, priorities
    ):
        query = query_3a()
        tree = JoinTree.left_deep(["lineitem", "orders", "customer"])

        def build():
            cursors = {}
            for seed, name in enumerate(query.relations):
                source = tiny_tpch.relations[name]
                if remote:
                    source = RemoteSource(
                        source,
                        BurstyNetworkModel(
                            burst_rate=20_000.0,
                            mean_burst_tuples=25,
                            mean_gap_seconds=0.01,
                            latency=0.0,
                            seed=seed,
                        ),
                    )
                cursors[name] = SourceCursor(name, source)
            outputs = []
            plan = PipelinedPlan(query, tree, cursors, outputs.extend, **engine)
            plan.read_priorities = dict(priorities)
            return plan, outputs

        (plan, outputs), (loop_plan, loop_outputs) = build(), build()
        windows = chunks = 0
        while not plan.sources_exhausted:
            until = plan.clock.now + self.WINDOW
            ran = plan.run_chunk(self.CHUNK, until=until)
            loop_ran, loop_chunks = self.chunk_loop(loop_plan, self.CHUNK, until)
            assert ran == loop_ran
            windows += 1
            chunks += loop_chunks
            assert consumed_counts(plan) == consumed_counts(loop_plan)
            assert node_outputs(plan) == node_outputs(loop_plan)
            assert plan.metrics.as_dict() == loop_plan.metrics.as_dict()
            # tuples read, outputs, work units, seconds, consumed
            assert plan.statistics == loop_plan.statistics
            assert repr(plan.clock.now) == repr(loop_plan.clock.now)
            assert repr(plan.clock.wait_time) == repr(loop_plan.clock.wait_time)
            assert outputs == loop_outputs
        assert loop_plan.sources_exhausted
        # The windows really spanned several chunks each.
        assert 2 < windows < chunks / 4
        if remote:
            assert plan.clock.wait_time > 0
