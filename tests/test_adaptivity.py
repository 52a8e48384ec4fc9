"""Unit tests for the adaptivity kernel (events, controller, policies).

The headline guarantee tested here is the extension contract: a brand-new
adaptation policy can be registered on a processor's (or server's)
controller and participate fully — receive typed events, propose plan
switches and read re-prioritizations, have them applied — **without any
change to** ``core/corrective.py`` **or** ``serving/server.py``.
"""

from __future__ import annotations

import pytest

from differential import (
    rate_collapse_setup,
    _bad_initial_tree,
    _canonical_multiset,
    _canonical_names,
    POLL_STEP_LIMIT,
    POLLING_INTERVAL,
)
from helpers import reference_spja
from collections import Counter

from repro.adaptivity import (
    AdaptationController,
    AdaptationPolicy,
    JoinStrategyPolicy,
    PlanSwitchPolicy,
    ReprioritizeReadsAction,
    SourceRatePolicy,
    SwitchPlanAction,
)
from repro.adaptivity.events import (
    OrderingObservedEvent,
    SelectivityDriftEvent,
    SourceExhaustedEvent,
    SourceRateEvent,
)
from repro.core.corrective import CorrectiveQueryProcessor
from repro.core.monitor import ExecutionMonitor
from repro.engine.pipelined import PipelinedPlan, SourceCursor
from repro.optimizer.enumerator import JoinEnumerator, Optimizer
from repro.optimizer.exposure import gating_tree, split_remaining_cost
from repro.optimizer.plans import JoinTree
from repro.optimizer.statistics import ObservedStatistics, SelectivityEstimator
from repro.relational.catalog import Catalog, TableStatistics
from repro.serving.server import QueryServer
from repro.workloads.differential import generate_workload


class RecordingPolicy(AdaptationPolicy):
    """Stub policy: records every hook invocation, acts on command."""

    name = "recording_stub"

    def __init__(self, force_switch_to=None, demote=None):
        self.began = 0
        self.events = []
        self.decides = 0
        self.force_switch_to = force_switch_to
        self.demote = demote
        self.switched = False

    def begin_run(self, run):
        self.began += 1

    def observe(self, run, event):
        self.events.append(event)

    def decide(self, run, context):
        self.decides += 1
        actions = []
        if self.demote is not None:
            actions.append(
                ReprioritizeReadsAction(
                    {self.demote: 1}, reason="stub demotion", policy=self.name
                )
            )
        if self.force_switch_to is not None and not self.switched:
            tree = self.force_switch_to(context)
            if tree is not None and str(tree) != str(context.current_tree):
                self.switched = True
                actions.append(
                    SwitchPlanAction(tree, reason="stub forced switch", policy=self.name)
                )
        return actions or None


def _rotated_tree(context):
    """A different (connected) left-deep order than the current tree's."""
    order = list(context.current_tree.leaf_order())
    if len(order) < 2:
        return None
    rotated = order[::-1]
    query = context.query
    # Only propose when the reversed order is join-connected left-deep.
    for i in range(1, len(rotated)):
        if not query.predicates_between(
            frozenset(rotated[:i]), frozenset((rotated[i],))
        ):
            return None
    return JoinTree.left_deep(rotated)


def _workload_with_joins(start_seed: int):
    """First generated workload with >= 2 relations (so switches exist)."""
    seed = start_seed
    while True:
        workload = generate_workload(seed)
        if len(workload.query.relations) >= 2:
            return workload
        seed += 1


class TestStubPolicyExtension:
    """The acceptance contract: new policies need no executor changes."""

    def test_stub_policy_registers_and_switches_on_processor(self):
        workload = _workload_with_joins(4200)
        stub = RecordingPolicy(force_switch_to=_rotated_tree)
        processor = CorrectiveQueryProcessor(
            workload.catalog(),
            workload.sources(),
            polling_interval_seconds=POLLING_INTERVAL,
            batch_size=64,
        )
        processor.adaptation.register(stub)
        report = processor.execute(
            workload.query,
            initial_tree=_bad_initial_tree(workload),
            poll_step_limit=POLL_STEP_LIMIT,
        )
        assert stub.began == 1
        assert stub.decides >= 1
        assert any(isinstance(event, SourceRateEvent) for event in stub.events)
        if stub.switched:
            assert report.num_phases >= 2
            assert any(
                switch["policy"] == "recording_stub"
                for switch in report.details["adaptation"]["switches"]
            )
            assert any(
                "stub forced switch" in phase.switch_reason
                for phase in report.phases
            )
        # Whatever the stub did, answers are still exactly the oracle's.
        assert _canonical_multiset(
            report.rows, report.schema.names, _canonical_names(workload)
        ) == Counter(reference_spja(workload.query, workload.relations))

    def test_stub_policy_sees_population_where_forced_switch_lands(self):
        """At least one seed in a small population lets the stub switch."""
        switched = 0
        for seed in range(4200, 4210):
            workload = _workload_with_joins(seed)
            stub = RecordingPolicy(force_switch_to=_rotated_tree)
            processor = CorrectiveQueryProcessor(
                workload.catalog(),
                workload.sources(),
                polling_interval_seconds=POLLING_INTERVAL,
                batch_size=64,
            )
            processor.adaptation.register(stub)
            report = processor.execute(
                workload.query,
                initial_tree=_bad_initial_tree(workload),
                poll_step_limit=POLL_STEP_LIMIT,
            )
            if stub.switched:
                switched += 1
                assert report.num_phases >= 2
        assert switched >= 1

    def test_stub_demotion_reaches_live_plan_priorities(self):
        workload = _workload_with_joins(4300)
        demoted = workload.query.relations[0]
        stub = RecordingPolicy(demote=demoted)
        processor = CorrectiveQueryProcessor(
            workload.catalog(),
            workload.sources(),
            polling_interval_seconds=POLLING_INTERVAL,
            batch_size=64,
        )
        processor.adaptation.register(stub)
        report = processor.execute(
            workload.query, initial_tree=_bad_initial_tree(workload)
        )
        adaptation = report.details["adaptation"]
        if stub.decides:
            assert adaptation["read_priorities"] == {demoted: 1}
            assert adaptation["reprioritizations"] == 1  # applied once, not per poll
        assert _canonical_multiset(
            report.rows, report.schema.names, _canonical_names(workload)
        ) == Counter(reference_spja(workload.query, workload.relations))

    def test_stub_session_policy_on_server(self):
        seeds = (4200, 4201)
        workloads = [
            generate_workload(seed, name_prefix=f"w{i}_")
            for i, seed in enumerate(seeds)
        ]
        catalog = Catalog()
        sources: dict[str, object] = {}
        for workload in workloads:
            for name, relation in workload.relations.items():
                catalog.register(name, relation.schema)
            sources.update(workload.sources())
        stub = RecordingPolicy()
        server = QueryServer(
            catalog,
            sources,
            batch_size=64,
            quantum_tuples=POLL_STEP_LIMIT,
            polling_interval_seconds=POLLING_INTERVAL,
            session_policies=(stub,),
        )
        for workload in workloads:
            server.submit(workload.query, label=workload.query.name)
        report = server.run()
        assert len(report.served) == 2
        # One begin_run per session, and events flowed to the stub.
        assert stub.began == 2
        for served, workload in zip(report.served, workloads):
            assert _canonical_multiset(
                served.rows, served.report.schema.names, _canonical_names(workload)
            ) == Counter(reference_spja(workload.query, workload.relations))


class TestControllerArbitration:
    def _context_bits(self):
        workload = _workload_with_joins(4400)
        monitor = ExecutionMonitor(workload.query)
        catalog = workload.catalog()
        return workload, monitor, catalog

    def test_first_registered_switch_wins_and_can_switch_gates(self):
        workload, monitor, catalog = self._context_bits()
        tree_a = JoinTree.left_deep(workload.query.relations)

        class Always(AdaptationPolicy):
            def __init__(self, name, tree):
                self.name = name
                self.tree = tree

            def decide(self, run, context):
                return SwitchPlanAction(self.tree, reason=f"{self.name} says so")

        first = Always("first", tree_a)
        second = Always("second", tree_a)
        controller = AdaptationController([first, second])
        run = controller.begin(workload.query, catalog, monitor=monitor)
        winner = run.poll(
            plan=None,
            current_tree=tree_a,
            current_strategies=None,
            phase_id=0,
            now=0.0,
            can_switch=True,
        )
        assert winner is not None and winner.policy == "first"
        suppressed = run.poll(
            plan=None,
            current_tree=tree_a,
            current_strategies=None,
            phase_id=7,
            now=0.0,
            can_switch=False,
        )
        assert suppressed is None
        assert len(run.switches) == 1

    def test_restored_priorities_leave_the_dict_empty(self):
        """Recovery must re-enable the engine's priority-free fast paths:
        zero (default) priorities are dropped, not stored."""
        workload, monitor, catalog = self._context_bits()
        relation = workload.query.relations[0]

        class Demote(AdaptationPolicy):
            name = "demote_then_restore"

            def __init__(self):
                self.priority = 1

            def decide(self, run, context):
                return ReprioritizeReadsAction(
                    {relation: self.priority}, reason="test"
                )

        policy = Demote()
        controller = AdaptationController([policy])
        run = controller.begin(workload.query, catalog, monitor=monitor)
        tree = JoinTree.left_deep(workload.query.relations)

        class FakePlan:
            read_priorities: dict = {}

        plan = FakePlan()
        run.poll(plan, tree, None, 0, 0.0, can_switch=True)
        assert run.read_priorities == {relation: 1}
        assert plan.read_priorities == {relation: 1}
        policy.priority = 0  # recovered
        run.poll(plan, tree, None, 0, 0.1, can_switch=True)
        assert run.read_priorities == {}
        assert plan.read_priorities == {}
        assert run.reprioritizations == 2
        # A redundant restore is a no-op, not another reprioritization.
        run.poll(plan, tree, None, 0, 0.2, can_switch=True)
        assert run.reprioritizations == 2

    def test_policy_lookup_and_describe(self):
        catalog = Catalog()
        plan_switch = PlanSwitchPolicy(catalog)
        controller = AdaptationController([plan_switch])
        assert controller.policy("plan_switch") is plan_switch
        assert controller.policy("missing") is None
        stub = RecordingPolicy()
        assert controller.register(stub) is stub
        assert controller.describe()["policies"] == ["plan_switch", "recording_stub"]


class TestEventReprs:
    def test_reprs_are_informative(self):
        rate = SourceRateEvent(
            phase_id=1,
            simulated_seconds=2.5,
            relation="orders",
            consumed=120,
            next_arrival=3.25,
            exhausted=False,
            promised_rate=4000.0,
        )
        assert "orders" in repr(rate)
        assert "next_arrival=3.250s" in repr(rate)
        assert "promised=4000tps" in repr(rate)
        assert rate.stall_seconds == pytest.approx(0.75)

        drift = SelectivityDriftEvent(
            phase_id=0,
            simulated_seconds=0.1,
            relations=frozenset({"a", "b"}),
            selectivity=0.25,
            previous=0.5,
        )
        assert "0.500000 -> 0.250000" in repr(drift)
        fresh = SelectivityDriftEvent(
            phase_id=0,
            simulated_seconds=0.1,
            relations=frozenset({"a"}),
            selectivity=0.25,
        )
        assert "first observation" in repr(fresh)

        ordering = OrderingObservedEvent(
            phase_id=0,
            simulated_seconds=0.2,
            relation="r",
            attribute="k",
            direction=1,
            in_order_fraction=0.97,
            observed=64,
        )
        assert "r.k asc" in repr(ordering)
        done = SourceExhaustedEvent(
            phase_id=2, simulated_seconds=1.0, relation="r", tuples_read=90
        )
        assert "90 tuples" in repr(done)


class TestMonitorEvents:
    def _run_plan(self, workload):
        query = workload.query
        cursors = {
            name: SourceCursor(name, source)
            for name, source in workload.sources().items()
        }
        tree = JoinTree.left_deep(query.relations)
        plan = PipelinedPlan(query, tree, cursors, lambda row: None)
        monitor = ExecutionMonitor(query)
        return plan, cursors, monitor

    def test_drain_events_returns_and_clears(self):
        workload = _workload_with_joins(4500)
        plan, cursors, monitor = self._run_plan(workload)
        plan.run_chunk(50)
        monitor.observe(plan, cursors)
        events = monitor.drain_events()
        assert events, "a poll must emit telemetry events"
        assert monitor.drain_events() == []
        assert all(
            isinstance(
                event,
                (
                    SourceRateEvent,
                    SelectivityDriftEvent,
                    OrderingObservedEvent,
                    SourceExhaustedEvent,
                ),
            )
            for event in events
        )
        rate_events = [e for e in events if isinstance(e, SourceRateEvent)]
        assert {e.relation for e in rate_events} == set(workload.query.relations)

    def test_exhausted_event_emitted_once(self):
        workload = _workload_with_joins(4500)
        plan, cursors, monitor = self._run_plan(workload)
        plan.run()
        monitor.observe(plan, cursors)
        monitor.observe(plan, cursors)
        events = monitor.drain_events()
        exhausted = [e for e in events if isinstance(e, SourceExhaustedEvent)]
        assert len(exhausted) == len(workload.query.relations)

    def test_selectivity_drift_only_on_change(self):
        workload = _workload_with_joins(4500)
        plan, cursors, monitor = self._run_plan(workload)
        plan.run()
        monitor.observe(plan, cursors)
        first = [
            e
            for e in monitor.drain_events()
            if isinstance(e, SelectivityDriftEvent)
        ]
        monitor.observe(plan, cursors)
        second = [
            e
            for e in monitor.drain_events()
            if isinstance(e, SelectivityDriftEvent)
        ]
        # Re-observing identical state records no new drift.
        assert not second or len(second) < max(len(first), 1)


class TestIncrementalSnapshots:
    def test_snapshots_equal_full_copy_oracle(self):
        """The incremental snapshot path records exactly what a naive
        full-copy per poll (the old behaviour) would have recorded."""
        workload = _workload_with_joins(4600)
        query = workload.query
        cursors = {
            name: SourceCursor(name, source)
            for name, source in workload.sources().items()
        }
        tree = JoinTree.left_deep(query.relations)
        plan = PipelinedPlan(query, tree, cursors, lambda row: None)
        monitor = ExecutionMonitor(query)
        oracle = []
        for _ in range(12):
            plan.run_chunk(7)
            oracle.append(
                {
                    "phase_id": plan.phase_id,
                    "simulated_seconds": plan.clock.now,
                    "tuples_read": plan.statistics.tuples_read,
                    "node_outputs": dict(plan.node_output_counts()),
                }
            )
            monitor.observe(plan, cursors)
        assert len(monitor.snapshots) == len(oracle)
        for snapshot, expected in zip(monitor.snapshots, oracle):
            assert snapshot.phase_id == expected["phase_id"]
            assert snapshot.simulated_seconds == expected["simulated_seconds"]
            assert snapshot.tuples_read == expected["tuples_read"]
            assert snapshot.node_outputs == expected["node_outputs"]

    def test_unchanged_snapshots_share_storage(self):
        workload = _workload_with_joins(4600)
        query = workload.query
        cursors = {
            name: SourceCursor(name, source)
            for name, source in workload.sources().items()
        }
        tree = JoinTree.left_deep(query.relations)
        plan = PipelinedPlan(query, tree, cursors, lambda row: None)
        monitor = ExecutionMonitor(query)
        plan.run()  # exhaust: counters frozen from here on
        monitor.observe(plan, cursors)
        monitor.observe(plan, cursors)
        a, b = monitor.snapshots[-2:]
        assert a.node_outputs == b.node_outputs
        assert a.node_outputs is b.node_outputs, (
            "identical consecutive observations must share one dict instead "
            "of deep-copying per poll"
        )

    def test_snapshot_repr(self):
        workload = _workload_with_joins(4600)
        query = workload.query
        cursors = {
            name: SourceCursor(name, source)
            for name, source in workload.sources().items()
        }
        plan = PipelinedPlan(
            query, JoinTree.left_deep(query.relations), cursors, lambda row: None
        )
        monitor = ExecutionMonitor(query)
        plan.run_chunk(5)
        snapshot = monitor.snapshot(plan)
        assert "MonitorSnapshot(phase=0" in repr(snapshot)


class TestSourceRatePolicyUnits:
    def _event(self, **overrides):
        base = dict(
            phase_id=0,
            simulated_seconds=1.0,
            relation="f",
            consumed=10,
            next_arrival=None,
            exhausted=False,
            promised_rate=1000.0,
            arrived=10,
        )
        base.update(overrides)
        return SourceRateEvent(**base)

    def test_collapse_detection(self):
        policy = SourceRatePolicy(Catalog(), collapse_fraction=0.5)
        assert policy._collapsed(self._event())  # 10 << 500 expected
        assert not policy._collapsed(self._event(arrived=600, consumed=0))
        assert not policy._collapsed(self._event(exhausted=True))
        assert not policy._collapsed(self._event(promised_rate=None))
        # Too early to judge: only 8 tuples were even promised by now.
        assert not policy._collapsed(
            self._event(simulated_seconds=0.008, arrived=0, consumed=0)
        )

    def test_fully_delivered_small_source_never_collapses(self):
        """promised_rate * elapsed must be capped at the source's size: a
        100-tuple source that delivered everything early is healthy forever,
        however long the rest of the query keeps running."""
        from repro.relational.schema import Schema

        catalog = Catalog()
        catalog.register(
            "f",
            Schema.from_names(["f_k"], relation="f"),
            TableStatistics(cardinality=100, promised_rate=1000.0),
        )
        policy = SourceRatePolicy(catalog)
        event = self._event(
            relation="f",
            simulated_seconds=5.0,  # expected-by-promise would be 5000
            consumed=40,
            arrived=100,
            next_arrival=0.0,
            promised_rate=1000.0,
        )
        assert not policy._collapsed(event)
        # Without a published cardinality the cap cannot apply, and the
        # same telemetry still reads as collapsed.
        assert SourceRatePolicy(Catalog())._collapsed(event)

    def test_delivery_beats_consumption(self):
        """Tuples sitting unread in the buffer are not a collapse."""
        policy = SourceRatePolicy(Catalog())
        event = self._event(consumed=0, arrived=900)
        assert policy._delivered(event) == 900
        assert not policy._collapsed(event)

    def test_promise_from_catalog_when_event_lacks_it(self):
        catalog = Catalog()
        from repro.relational.schema import Schema

        catalog.register(
            "f",
            Schema.from_names(["f_k"], relation="f"),
            TableStatistics(promised_rate=1000.0),
        )
        policy = SourceRatePolicy(catalog)
        # The event carries no promise, but the catalog's stands in.
        assert policy._promised_rate("f") == 1000.0
        assert policy._collapsed(self._event(promised_rate=None, relation="f"))
        # A relation with no catalog entry (and no event promise) never
        # counts as collapsed.
        assert not policy._collapsed(
            self._event(promised_rate=None, relation="unknown")
        )

    def test_gating_tree_puts_slow_relation_on_top(self):
        workload = _workload_with_joins(4700)
        query = workload.query
        catalog = workload.catalog()
        estimator = SelectivityEstimator(catalog, query, ObservedStatistics())
        enumerator = JoinEnumerator(query, estimator)
        slow = query.relations[0]
        tree = gating_tree(query, enumerator, slow)
        if tree is not None:
            assert tree.right.is_leaf and tree.right.relation == slow
            assert tree.relations() == frozenset(query.relations)

    def test_split_cost_accounts_every_term(self):
        """gated + ungated equals the same model's total, fresh run."""
        workload = _workload_with_joins(4700)
        query = workload.query
        catalog = workload.catalog()
        cost_model = SourceRatePolicy(catalog).cost_model
        estimator = SelectivityEstimator(catalog, query, ObservedStatistics())
        tree = Optimizer(catalog).optimize_tree(query)
        slow = query.relations[0]
        gated, ungated = split_remaining_cost(
            query, tree, estimator, slow, ObservedStatistics(), cost_model
        )
        assert gated > 0
        assert gated + ungated > 0
        other = query.relations[-1]
        gated2, ungated2 = split_remaining_cost(
            query, tree, estimator, other, ObservedStatistics(), cost_model
        )
        # Same tree, same totals — only the split moves.
        assert gated + ungated == pytest.approx(gated2 + ungated2)
