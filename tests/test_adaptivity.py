"""Unit tests for the adaptivity kernel (events, controller, policies).

The headline guarantee tested here is the extension contract: a brand-new
adaptation policy can be registered on a processor's controller and
participate fully — receive rate samples, propose plan switches and read
re-prioritizations, have them applied — **without any change to**
``core/corrective.py``.
"""

from __future__ import annotations

import pytest

from differential import (
    POLL_STEP_LIMIT,
    POLLING_INTERVAL,
    bad_initial_tree,
    canonical_multiset,
)
from helpers import reference_spja, tuple_at_a_time
from collections import Counter

from repro.adaptivity import (
    AdaptationController,
    AdaptationPolicy,
    MirrorFailoverPolicy,
    PlanSwitchPolicy,
    ReprioritizeReadsAction,
    SourceRatePolicy,
    SwitchPlanAction,
)
from repro.adaptivity.events import (
    MIN_EXPECTED_TUPLES,
    SourceRateEvent,
    delivery_collapsed,
    promised_rate_of,
)
from repro.core.corrective import CorrectiveQueryProcessor
from repro.core.monitor import ExecutionMonitor
from repro.engine.pipelined import PipelinedPlan, SourceCursor
from repro.optimizer.enumerator import JoinEnumerator, Optimizer
from repro.optimizer.exposure import gating_tree, split_remaining_cost
from repro.optimizer.plans import JoinTree
from repro.optimizer.statistics import ObservedStatistics, SelectivityEstimator
from repro.relational.catalog import Catalog, TableStatistics
from workload_generator import generate_workload


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
            initial_tree=bad_initial_tree(workload),
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
        assert canonical_multiset(
            report.rows, report.schema.names, workload
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
                initial_tree=bad_initial_tree(workload),
                poll_step_limit=POLL_STEP_LIMIT,
            )
            if stub.switched:
                switched += 1
                assert report.num_phases >= 2
        assert switched >= 1

    def test_phase_end_samples_reach_the_next_phase_first_poll(self):
        """The executor observes once more when a phase ends; those samples
        reach the policies together with the next phase's first poll."""
        workload = _workload_with_joins(4200)

        class SwitchOnce(AdaptationPolicy):
            name = "switch_once"

            def __init__(self):
                self.pending = []
                self.polls = []

            def observe(self, run, event):
                self.pending.append(event)

            def decide(self, run, context):
                self.polls.append(self.pending)
                self.pending = []
                if len(self.polls) == 1:
                    return SwitchPlanAction(context.current_tree, reason="once")
                return None

        stub = SwitchOnce()
        processor = CorrectiveQueryProcessor(
            workload.catalog(),
            workload.sources(),
            polling_interval_seconds=POLLING_INTERVAL,
            batch_size=64,
        )
        processor.adaptation.register(stub)
        processor.execute(workload.query, poll_step_limit=POLL_STEP_LIMIT)
        # The first poll switches, so the second is phase 1's first.
        events = stub.polls[1]
        per_relation = {}
        for event in events:
            per_relation.setdefault(event.relation, []).append(event.phase_id)
        assert per_relation == {name: [0, 1] for name in workload.query.relations}

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
            workload.query, initial_tree=bad_initial_tree(workload)
        )
        adaptation = report.details["adaptation"]
        if stub.decides:
            assert adaptation["read_priorities"] == {demoted: 1}
            assert adaptation["reprioritizations"] == 1  # applied once, not per poll
        assert canonical_multiset(
            report.rows, report.schema.names, workload
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
            now=0.0,
            can_switch=True,
        )
        assert winner is not None and winner.policy == "first"
        suppressed = run.poll(
            plan=None,
            current_tree=tree_a,
            current_strategies=None,
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
        run.poll(plan, tree, None, 0.0, can_switch=True)
        assert run.read_priorities == {relation: 1}
        assert plan.read_priorities == {relation: 1}
        policy.priority = 0  # recovered
        run.poll(plan, tree, None, 0.1, can_switch=True)
        assert run.read_priorities == {}
        assert plan.read_priorities == {}
        assert run.reprioritizations == 2
        # A redundant restore is a no-op, not another reprioritization.
        run.poll(plan, tree, None, 0.2, can_switch=True)
        assert run.reprioritizations == 2

    def test_policy_lookup_and_registration(self):
        plan_switch = PlanSwitchPolicy()
        controller = AdaptationController([plan_switch])
        assert controller.policy("plan_switch") is plan_switch
        assert controller.policy("missing") is None
        stub = RecordingPolicy()
        assert controller.register(stub) is stub
        assert controller.policies == (plan_switch, stub)


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


class TestMonitorEvents:
    def test_drain_events_returns_and_clears(self):
        workload = _workload_with_joins(4500)
        query = workload.query
        cursors = {
            name: SourceCursor(name, source)
            for name, source in workload.sources().items()
        }
        tree = JoinTree.left_deep(query.relations)
        plan = PipelinedPlan(query, tree, cursors, lambda rows: None)
        monitor = ExecutionMonitor(query)
        plan.run_chunk(50)
        monitor.observe(plan, cursors)
        events = monitor.drain_events()
        assert events, "a poll must emit telemetry events"
        assert monitor.drain_events() == []
        assert all(isinstance(event, SourceRateEvent) for event in events)
        assert [e.relation for e in events] == list(plan.leaves)


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
        policy = SourceRatePolicy(Catalog())
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
        assert event.delivered == 900
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
        assert promised_rate_of(self._event(promised_rate=None), catalog) == 1000.0
        assert policy._collapsed(self._event(promised_rate=None, relation="f"))
        # A relation with no catalog entry (and no event promise) never
        # counts as collapsed.
        assert not policy._collapsed(
            self._event(promised_rate=None, relation="unknown")
        )

    @pytest.mark.parametrize(
        "overrides, collapsed",
        [
            ({}, True),
            ({"promised_rate": None, "relation": "unknown"}, False),  # no promise
            ({"promised_rate": None}, True),  # the catalog's promise stands in
            ({"promised_rate": 0.0}, False),
            ({"simulated_seconds": 0.008, "arrived": 0, "consumed": 0}, False),
            # capped by the catalog's 100 tuples: 60 of them is healthy...
            ({"simulated_seconds": 5.0, "arrived": 60}, False),
            # ...40 is not
            ({"simulated_seconds": 5.0, "arrived": 40}, True),
            ({"arrived": None}, True),
            ({"arrived": None, "consumed": 600}, False),
            ({"arrived": 900, "consumed": 0}, False),  # arrived ahead of consumed
        ],
    )
    def test_rate_and_failover_share_one_delivery_deficit_test(
        self, overrides, collapsed
    ):
        """Both policies judge a delivery deficit alike; the failover
        policy's stall arm stays quiet (the next tuple is due now)."""
        from repro.relational.schema import Schema

        catalog = Catalog()
        catalog.register(
            "f",
            Schema.from_names(["f_k"], relation="f"),
            TableStatistics(cardinality=100, promised_rate=1000.0),
        )
        now = overrides.get("simulated_seconds", 1.0)
        event = self._event(**{"next_arrival": now, **overrides})
        assert SourceRatePolicy(catalog)._collapsed(event) is collapsed
        assert MirrorFailoverPolicy(catalog)._outage(event) is collapsed

    @pytest.mark.parametrize(
        "delivered, promised, now, cardinality, collapsed",
        [
            (7, float(MIN_EXPECTED_TUPLES), 1.0, None, True),  # expected == 16
            (0, MIN_EXPECTED_TUPLES - 0.5, 1.0, None, False),  # just too early
            (50, 100.0, 1.0, None, False),  # delivered exactly half
            (49, 100.0, 1.0, None, True),
            (49, 1000.0, 5.0, 100, True),  # capped by cardinality
            (50, 1000.0, 5.0, 100, False),
            (0, 1000.0, 5.0, 0, False),  # total 0
            (0, 1000.0, 0.0, None, False),  # now 0
            (100, 1000.0, 5.0, 100, False),  # fully delivered
            (0, None, 5.0, None, False),
            (0, 0.0, 5.0, None, False),
        ],
    )
    def test_the_rate_policy_applies_the_shared_collapse_rule(
        self, delivered, promised, now, cardinality, collapsed
    ):
        """The rate policy's ``_collapsed`` flags a sample exactly when
        :func:`delivery_collapsed` does on its raw numbers."""
        from repro.relational.schema import Schema

        catalog = Catalog()
        if cardinality is not None:
            catalog.register(
                "f",
                Schema.from_names(["f_k"], relation="f"),
                TableStatistics(cardinality=cardinality),
            )
        event = self._event(
            simulated_seconds=now,
            consumed=delivered,
            arrived=delivered,
            next_arrival=now,
            promised_rate=promised,
        )
        assert delivery_collapsed(delivered, promised, now, cardinality) is collapsed
        assert SourceRatePolicy(catalog)._collapsed(event) is collapsed

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


#: sha256 of what the two runs of ``TestOnePollContext`` produce — answers,
#: phases, switch and failover reasons, poll counts and
#: ``repr(simulated_seconds)`` — recorded when each policy still built its
#: own estimator
ONE_POLL_CONTEXT_SHA256 = (
    "004523287ba3632586ed4954f45099b86278c80b5d6703337d1431c1e0d06687"
)


class TestOnePollContext:
    """Order, rate and failover adaptivity together over a collapsing remote
    source: every poll builds one estimator and gathers the ordering once,
    and a phase build gathers it once more (phase 0 shares the initial plan's)."""

    def _run(self, scenario, oracle=True):
        """One corrective run of ``scenario``, stepped by the tuple-at-a-time
        clock oracle unless ``oracle`` is false (the engine's own schedule)."""
        from contextlib import nullcontext

        from repro.engine.cost import CostModel
        from repro.workloads.scenarios import (
            FAILOVER_STALL_FRACTION,
            POLLING_FRACTION,
            SWITCH_THRESHOLD,
            failover_scenario,
            rate_scenario,
        )

        # The pinned digest below hashes answers in sink order, the order of
        # the tuple-at-a-time clock oracle.
        cost_model = CostModel()
        if scenario == "failover":
            query, catalog, sources, work_floor = failover_scenario(3000, 2004, cost_model)
            tree = None
        else:
            query, catalog, sources, tree, work_floor = rate_scenario(
                scenario, 3000, 2004, cost_model
            )
        with tuple_at_a_time() if oracle else nullcontext():
            return CorrectiveQueryProcessor(
                catalog,
                sources,
                cost_model,
                engine_mode="interpreted" if oracle else None,
                polling_interval_seconds=POLLING_FRACTION * work_floor,
                switch_threshold=SWITCH_THRESHOLD,
                order_adaptive=True,
                rate_adaptive=True,
                failover_adaptive=True,
                failover_stall_seconds=FAILOVER_STALL_FRACTION * work_floor,
            ).execute(query, initial_tree=tree)

    def test_one_estimator_and_one_ordering_per_poll(self, monkeypatch):
        import hashlib

        from repro.adaptivity.controller import AdaptationRun
        from repro.optimizer.ordering import OrderingKnowledge

        counts = Counter()
        in_poll = [False]
        init, gather, poll = (
            SelectivityEstimator.__init__,
            OrderingKnowledge.gather.__func__,
            AdaptationRun.poll,
        )

        def counting_init(self, *args):
            counts["estimators", in_poll[0]] += 1
            init(self, *args)

        def counting_gather(cls, *args):
            counts["gathers", in_poll[0]] += 1
            return gather(cls, *args)

        def counting_poll(self, *args, **kwargs):
            counts["polls"] += 1
            in_poll[0] = True
            try:
                return poll(self, *args, **kwargs)
            finally:
                in_poll[0] = False

        monkeypatch.setattr(SelectivityEstimator, "__init__", counting_init)
        monkeypatch.setattr(OrderingKnowledge, "gather", classmethod(counting_gather))
        monkeypatch.setattr(AdaptationRun, "poll", counting_poll)
        digest = hashlib.sha256()
        for scenario, acted in (("failover", "failovers"), ("slow", "switches")):
            counts.clear()
            report = self._run(scenario)
            adaptation = report.details["adaptation"]
            assert adaptation[acted] and adaptation["reprioritizations"]
            polls = counts["polls"]
            assert polls == report.reoptimizer_polls > 0
            assert counts["estimators", True] == counts["gathers", True] == polls
            # Each phase build gathers once; phase 0 reuses the gather that
            # picked the initial tree when the run was not handed one.
            assert counts["gathers", False] == report.num_phases
            digest.update(
                repr(
                    (
                        report.rows,
                        [
                            (
                                str(phase.join_tree),
                                phase.switch_reason,
                                phase.tuples_read,
                                phase.outputs,
                                repr(phase.ended_at),
                            )
                            for phase in report.phases
                        ],
                        [
                            (action["policy"], action["reason"])
                            for action in adaptation["switches"] + adaptation["failovers"]
                        ],
                        adaptation["reprioritizations"],
                        report.reoptimizer_polls,
                        repr(report.simulated_seconds),
                    )
                ).encode()
            )
        assert digest.hexdigest() == ONE_POLL_CONTEXT_SHA256

    @pytest.mark.parametrize("scenario", ["failover", "slow"])
    def test_the_engine_schedule_matches_the_oracle(self, scenario):
        """The pinned digest runs under the oracle; the engine's own
        schedule must give the same run on everything but the read
        batching and the answers' sink order."""

        def view(report):
            adaptation = report.details["adaptation"]
            counters = report.metrics.as_dict()
            del counters["batches_read"]
            return (
                sorted(report.rows),
                [
                    (
                        str(phase.join_tree),
                        phase.switch_reason,
                        phase.tuples_read,
                        phase.outputs,
                        phase.consumed_per_relation,
                        repr(phase.ended_at),
                    )
                    for phase in report.phases
                ],
                [
                    (action["policy"], action["reason"])
                    for action in adaptation["switches"] + adaptation["failovers"]
                ],
                adaptation["reprioritizations"],
                report.reoptimizer_polls,
                counters,
                repr(report.simulated_seconds),
            )

        expected = self._run(scenario)
        assert view(self._run(scenario, oracle=False)) == view(expected)
        assert expected.details["adaptation"]["reprioritizations"]
