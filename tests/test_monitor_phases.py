"""Tests for the execution monitor and phase bookkeeping."""

import pytest

from repro.core.monitor import ExecutionMonitor
from repro.core.phases import PhaseManager
from repro.engine.pipelined import PipelinedExecutor, PipelinedPlan, SourceCursor
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery
from repro.relational.expressions import JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def join_query():
    return SPJAQuery(
        name="rs",
        relations=("r", "s"),
        join_predicates=(JoinPredicate("r", "rk", "s", "s_rk"),),
    )


def make_sources(r_rows=100, s_rows=100, fanout=1):
    r_schema = Schema.from_names(["rk", "rv"], relation="r")
    s_schema = Schema.from_names(["sk", "s_rk"], relation="s")
    r = Relation("r", r_schema, [(i, f"v{i}") for i in range(r_rows)])
    s = Relation(
        "s", s_schema, [(i, (i // fanout) % r_rows) for i in range(s_rows)]
    )
    return {"r": r, "s": s}


class TestExecutionMonitor:
    def test_observes_sources_and_selectivities(self):
        query = join_query()
        sources = make_sources()
        monitor = ExecutionMonitor(query)
        cursors = {name: SourceCursor(name, src) for name, src in sources.items()}
        collected = []
        plan = PipelinedPlan(query, JoinTree.left_deep(["r", "s"]), cursors, collected.append)
        plan.run()
        observed = monitor.observe(plan, cursors)
        assert observed.source("r").tuples_read == 100
        assert observed.source("r").exhausted
        key = frozenset({"r", "s"})
        assert observed.selectivity_of(key) == pytest.approx(100 / (100 * 100))
        assert monitor.poll_count() == 1
        assert monitor.snapshots[-1].tuples_read == 200

    def test_selectivities_not_trusted_too_early(self):
        query = join_query()
        sources = make_sources()
        monitor = ExecutionMonitor(query)
        cursors = {name: SourceCursor(name, src) for name, src in sources.items()}
        plan = PipelinedPlan(query, JoinTree.left_deep(["r", "s"]), cursors, lambda row: None)
        plan.run(max_steps=5)
        observed = monitor.observe(plan, cursors)
        assert observed.selectivity_of(frozenset({"r", "s"})) is None

    def test_exhausted_tiny_sources_yield_exact_selectivity(self):
        """Regression: the ``inputs_seen >= 10`` trust threshold used to
        discard selectivities of subexpressions over fully exhausted tiny
        sources — but an exhausted 5-row dimension table yields an *exact*
        selectivity, the most trustworthy observation there is."""
        query = join_query()
        sources = make_sources(r_rows=5, s_rows=5)
        monitor = ExecutionMonitor(query)
        cursors = {name: SourceCursor(name, src) for name, src in sources.items()}
        plan = PipelinedPlan(query, JoinTree.left_deep(["r", "s"]), cursors, lambda row: None)
        plan.run()
        observed = monitor.observe(plan, cursors)
        assert observed.source("r").exhausted and observed.source("s").exhausted
        assert observed.selectivity_of(frozenset({"r", "s"})) == pytest.approx(
            5 / (5 * 5)
        )

    def test_partially_read_tiny_sources_still_not_trusted(self):
        """The exhausted-source exemption must not weaken the threshold for
        small-but-unfinished inputs."""
        query = join_query()
        sources = make_sources(r_rows=40, s_rows=40)
        monitor = ExecutionMonitor(query)
        cursors = {name: SourceCursor(name, src) for name, src in sources.items()}
        plan = PipelinedPlan(query, JoinTree.left_deep(["r", "s"]), cursors, lambda row: None)
        plan.run(max_steps=8)
        observed = monitor.observe(plan, cursors)
        assert not observed.source("r").exhausted
        assert observed.selectivity_of(frozenset({"r", "s"})) is None

    def test_multiplicative_join_flagged(self):
        # Every s tuple matches every r key 0..9: a strongly multiplicative join.
        r_schema = Schema.from_names(["rk"], relation="r")
        s_schema = Schema.from_names(["s_rk"], relation="s")
        r = Relation("r", r_schema, [(i % 10,) for i in range(100)])
        s = Relation("s", s_schema, [(i % 10,) for i in range(100)])
        query = join_query()
        monitor = ExecutionMonitor(query)
        cursors = {"r": SourceCursor("r", r), "s": SourceCursor("s", s)}
        plan = PipelinedPlan(query, JoinTree.left_deep(["r", "s"]), cursors, lambda row: None)
        plan.run()
        observed = monitor.observe(plan, cursors)
        predicate = query.join_predicates[0]
        assert observed.multiplicative_factor(predicate) > 1.0

    def test_no_flag_for_key_foreign_key_join(self, tiny_tpch):
        from repro.workloads.queries import query_3a

        query = query_3a()
        sources = tiny_tpch.as_sources()
        monitor = ExecutionMonitor(query)
        executor = PipelinedExecutor(sources)
        cursors = {name: SourceCursor(name, sources[name]) for name in query.relations}
        collected = []
        plan = PipelinedPlan(
            query, JoinTree.left_deep(["customer", "orders", "lineitem"]), cursors, collected.append
        )
        plan.run()
        observed = monitor.observe(plan, cursors)
        for predicate in query.join_predicates:
            assert observed.multiplicative_factor(predicate) == 1.0


class TestPhaseManager:
    def test_phase_lifecycle(self):
        manager = PhaseManager()
        tree = JoinTree.left_deep(["r", "s"])
        manager.start_phase(tree, started_at=0.0)
        record = manager.finish_current(
            ended_at=1.5,
            steps=10,
            tuples_read=10,
            outputs=4,
            consumed_per_relation={"r": 6, "s": 4},
            work_units=25.0,
            switch_reason="testing",
        )
        assert record.duration == pytest.approx(1.5)
        assert manager.phase_count == 1
        assert manager.trees() == [tree]
        assert "phase 0" in manager.describe()

    def test_current_requires_started_phase(self):
        with pytest.raises(RuntimeError):
            PhaseManager().current()

    def test_multiple_phases_get_sequential_ids(self):
        manager = PhaseManager()
        tree = JoinTree.left_deep(["r", "s"])
        for i in range(3):
            manager.start_phase(tree, started_at=float(i))
            manager.finish_current(float(i + 1), 1, 1, 1, {}, 1.0)
        assert [record.phase_id for record in manager] == [0, 1, 2]
