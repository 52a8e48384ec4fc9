"""Units for the order-adaptive join subsystem.

Covers the pieces end to end at small scale: order detectors on source
cursors, ordering knowledge fusion (promises vs observations), strategy
selection over join trees, the sorted-run state structure, the pipelined
merge-join node (including robustness to out-of-order input), order-aware
costing/re-optimization, the sorted-input cardinality extrapolation, and the
serving-layer sharing of discovered orderings.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from helpers import feed
from repro.core.corrective import CorrectiveQueryProcessor
from repro.core.monitor import ExecutionMonitor
from repro.engine.cost import ExecutionMetrics
from repro.engine.pipelined import PipelinedExecutor, PipelinedPlan, SourceCursor
from repro.engine.pipelined_merge import PipelinedMergeJoinNode
from repro.engine.state.sorted_run import SortedRunState
from repro.optimizer.ordering import (
    JoinStrategy,
    OrderingKnowledge,
    SideOrdering,
    algorithms_of,
    merge_step,
    plan_join_strategies,
    refresh_strategies,
)
from repro.optimizer.plans import JoinTree
from repro.optimizer.reoptimizer import ReOptimizer
from repro.optimizer.statistics import ObservedStatistics, SelectivityEstimator
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.expressions import JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serving.stats_cache import SharedStatisticsCache
from repro.stats.order_detector import OrderDetector


def _two_source_fixture(n=600, sorted_s=True, seed=11):
    rng = random.Random(seed)
    r_schema = Schema.from_names(["r_pk", "r_val"], relation="r")
    s_schema = Schema.from_names(["s_fk", "s_val"], relation="s")
    r_rows = [(i, rng.randrange(50)) for i in range(n)]
    s_rows = [(rng.randrange(n), rng.randrange(50)) for _ in range(n)]
    if sorted_s:
        s_rows.sort()
    relations = {
        "r": Relation("r", r_schema, r_rows),
        "s": Relation("s", s_schema, s_rows),
    }
    query = SPJAQuery("q", ("r", "s"), (JoinPredicate("s", "s_fk", "r", "r_pk"),))
    return query, relations


def _reference_join(relations):
    r_index = {}
    for row in relations["r"].rows:
        r_index.setdefault(row[0], []).append(row)
    out = []
    for s_row in relations["s"].rows:
        for r_row in r_index.get(s_row[0], []):
            out.append(r_row + s_row)
    return Counter(out)


class TestCursorOrderDetectors:
    def test_detector_sees_every_consumed_tuple_in_order(self):
        relation = Relation(
            "t", Schema.from_names(["a", "b"]), [(i, i * 2) for i in range(100)]
        )
        cursor = SourceCursor("t", relation)
        detector = cursor.ensure_order_detector("a")
        # Mixed read APIs must all feed the detector.
        cursor.read()
        cursor.read_batch(10)
        cursor.read_batch(20, 0.0)
        while cursor.read() is not None:
            pass
        assert detector.observed == 100
        assert detector.direction() == 1
        assert detector.min_value == 0 and detector.max_value == 99

    def test_ensure_is_idempotent_and_persists(self):
        relation = Relation("t", Schema.from_names(["a"]), [(3,), (1,), (2,)])
        cursor = SourceCursor("t", relation)
        first = cursor.ensure_order_detector("a", tolerance=0.1)
        again = cursor.ensure_order_detector("a", tolerance=0.5)
        assert first is again
        assert first.tolerance == 0.1
        assert set(cursor.order_detectors) == {"a"}


class TestOrderDetectorLateness:
    def test_in_order_fraction_stricter_than_adjacent_violations(self):
        detector = OrderDetector()
        # One early high value: a single adjacent inversion, but every later
        # arrival is below the high-water mark.
        feed(detector, [100, 1, 2, 3, 4, 5])
        assert detector.ascending_violations == 1
        assert detector.below_highwater == 5
        assert detector.in_order_fraction(1) == 0.0

    def test_descending_in_order_fraction(self):
        detector = OrderDetector()
        feed(detector, [9, 7, 5, 3])
        assert detector.in_order_fraction(-1) == 1.0
        assert detector.above_lowwater == 0

    def test_descending_progress_fraction(self):
        detector = OrderDetector()
        feed(detector, [100, 90, 80, 70, 60])
        assert detector.progress_fraction(0, 100) == pytest.approx(0.4)


ASC, DESC, OFF = SideOrdering(1, 0.9), SideOrdering(-1, 0.95), SideOrdering(None)


class TestMergeStep:
    @pytest.mark.parametrize(
        "left, right",
        [(None, ASC), (ASC, None), (OFF, OFF), (ASC, DESC), (ASC, SideOrdering(1, 0.7))],
    )
    def test_a_hash_join_unless_both_sides_agree_in_order(self, left, right):
        sides = [{"a": o} if o else {} for o in (left, right)]
        assert merge_step(*sides, ("a", "b"), True, True) == (None, {})

    @pytest.mark.parametrize("leaves", [(True, True), (True, False), (False, False)])
    def test_merge_charges_disorder_at_leaf_sides_only(self, leaves):
        left, right = SideOrdering(-1, 0.85), DESC
        strategy, derived = merge_step({"a": left}, {"b": right}, ("a", "b"), *leaves)
        assert strategy == JoinStrategy(
            "merge", -1, "a", "b",
            0.85 if leaves[0] else 1.0, 0.95 if leaves[1] else 1.0,
        )
        assert derived == dict.fromkeys("ab", SideOrdering(-1, 0.85, "derived"))
        assert algorithms_of({frozenset("rs"): strategy}) == {frozenset("rs"): "merge"}
        assert algorithms_of(None) == {}


class TestOrderingKnowledge:
    def _catalog(self, promise=True):
        catalog = Catalog()
        catalog.register(
            "r",
            Schema.from_names(["r_pk"], relation="r"),
            TableStatistics(sorted_on=("r_pk",) if promise else ()),
        )
        catalog.register(
            "s",
            Schema.from_names(["s_fk"], relation="s"),
            TableStatistics(sorted_on=("s_fk",) if promise else ()),
        )
        return catalog

    def _query(self):
        return SPJAQuery("q", ("r", "s"), (JoinPredicate("s", "s_fk", "r", "r_pk"),))

    def test_promises_seed_knowledge(self):
        knowledge = OrderingKnowledge.gather(self._catalog(), self._query())
        assert knowledge.side("r", "r_pk").direction == 1
        assert knowledge.side("r", "r_pk").source == "promise"

    def test_observation_overrides_lying_promise(self):
        observed = ObservedStatistics()
        detector = OrderDetector(tolerance=0.05)
        feed(detector, random.Random(3).sample(range(100), 100))
        observed.record_ordering("r", "r_pk", detector)
        knowledge = OrderingKnowledge.gather(self._catalog(), self._query(), observed)
        assert knowledge.side("r", "r_pk").direction is None
        assert knowledge.side("r", "r_pk").source == "observed"

    def test_small_observation_keeps_promise(self):
        observed = ObservedStatistics()
        detector = OrderDetector()
        feed(detector, [5, 3, 1])  # too few arrivals to trust
        observed.record_ordering("r", "r_pk", detector)
        knowledge = OrderingKnowledge.gather(self._catalog(), self._query(), observed)
        assert knowledge.side("r", "r_pk").direction == 1
        assert knowledge.side("r", "r_pk").source == "promise"

    def test_strategy_selection_and_refresh(self):
        query = self._query()
        tree = JoinTree.left_deep(("r", "s"))
        knowledge = OrderingKnowledge.gather(self._catalog(), query)
        strategies = plan_join_strategies(query, tree, knowledge)
        strategy = strategies[frozenset(("r", "s"))]
        assert strategy.algorithm == "merge"
        assert strategy.direction == 1
        assert {strategy.left_key, strategy.right_key} == {"r_pk", "s_fk"}

        # After the detectors expose s as unordered, refresh keeps the
        # (running) merge algorithm but re-prices its in-order fraction,
        # while a fresh selection no longer picks merge at all.
        observed = ObservedStatistics()
        detector = OrderDetector(tolerance=0.05)
        feed(detector, random.Random(5).sample(range(200), 200))
        observed.record_ordering("s", "s_fk", detector)
        newer = OrderingKnowledge.gather(self._catalog(), query, observed)
        assert plan_join_strategies(query, tree, newer) == {}
        refreshed = refresh_strategies(query, tree, strategies, newer)
        merged = refreshed[frozenset(("r", "s"))]
        assert merged.algorithm == "merge"
        side_fraction = (
            merged.left_in_order if merged.left_key == "s_fk" else merged.right_in_order
        )
        assert side_fraction < 0.5

    def test_mixed_directions_are_not_merge_eligible(self):
        query = self._query()
        observed = ObservedStatistics()
        asc, desc = OrderDetector(), OrderDetector()
        feed(asc, range(50))
        feed(desc, range(50, 0, -1))
        observed.record_ordering("r", "r_pk", asc)
        observed.record_ordering("s", "s_fk", desc)
        knowledge = OrderingKnowledge.gather(self._catalog(False), query, observed)
        assert plan_join_strategies(query, JoinTree.left_deep(("r", "s")), knowledge) == {}

    def test_descending_both_sides_selects_descending_merge(self):
        query = self._query()
        observed = ObservedStatistics()
        for relation, attr in (("r", "r_pk"), ("s", "s_fk")):
            detector = OrderDetector()
            feed(detector, range(50, 0, -1))
            observed.record_ordering(relation, attr, detector)
        knowledge = OrderingKnowledge.gather(self._catalog(False), query, observed)
        strategies = plan_join_strategies(query, JoinTree.left_deep(("r", "s")), knowledge)
        assert strategies[frozenset(("r", "s"))].direction == -1


class TestSortedRunState:
    def test_two_tier_probe_and_eviction(self):
        schema = Schema.from_names(["k", "v"])
        state = SortedRunState(schema, "k")
        for key in (1, 2, 2, 3, 5):
            state.insert((key, key * 10))
        assert state.active_size() == 5
        moved = state.evict_below(3)
        assert moved == 3
        assert state.active_size() == 2 and len(state) - state.active_size() == 3
        assert state.probe_active(2) == []
        assert sorted(state.probe_archive(2)) == [(2, 20), (2, 20)]
        # probe() spans both tiers; scan()/len() always cover everything.
        assert sorted(state.probe(2)) == [(2, 20), (2, 20)]
        assert len(state) == 5
        assert sorted(state.scan()) == [(1, 10), (2, 20), (2, 20), (3, 30), (5, 50)]
        assert state.peak_active == 5

    def test_out_of_order_insert_after_eviction_stays_probeable(self):
        schema = Schema.from_names(["k"])
        state = SortedRunState(schema, "k")
        for key in (1, 2, 3, 4):
            state.insert((key,))
        state.evict_below(4)
        state.insert((2,))  # straggler below the eviction bound
        assert state.probe_active(2) == [(2,)]
        assert state.probe(2) == [(2,), (2,)]

    def test_evict_above_for_descending_streams(self):
        schema = Schema.from_names(["k"])
        state = SortedRunState(schema, "k")
        for key in (9, 7, 5, 3):
            state.insert((key,))
        moved = state.evict_above(5)
        assert moved == 2
        assert state.active_size() == 2 and len(state) - state.active_size() == 2
        assert state.probe_archive(9) == [(9,)]


class TestPipelinedMergeNode:
    def _node(self, direction=1):
        left = Schema.from_names(["a"], relation="l")
        right = Schema.from_names(["b"], relation="r")
        node = PipelinedMergeJoinNode(
            left, right, "a", "b", None, ExecutionMetrics(), direction=direction
        )
        node.left_relations = frozenset(("l",))
        node.right_relations = frozenset(("r",))
        out = []
        node.sink_batch = out.extend
        return node, out

    def test_sorted_streams_join_with_bounded_window(self):
        node, out = self._node()
        for i in range(100):
            node.push_batch([(i,)], "left")
            node.push_batch([(i,)], "right")
        assert sorted(out) == [(i, i) for i in range(100)]
        assert node.late_arrivals == 0
        # The active window stays tiny: eviction tracks the watermarks.
        assert node.peak_state_tuples() <= 6
        assert node.metrics.comparisons == 2 * 200
        assert node.metrics.hash_inserts == 0

    def test_unordered_streams_still_join_exactly(self):
        rng = random.Random(17)
        left_rows = [(rng.randrange(30),) for _ in range(200)]
        right_rows = [(rng.randrange(30),) for _ in range(200)]
        node, out = self._node()
        for l, r in zip(left_rows, right_rows):
            node.push_batch([l], "left")
            node.push_batch([r], "right")
        expected = Counter(
            (l[0], r[0]) for l in left_rows for r in right_rows if l[0] == r[0]
        )
        assert Counter(out) == expected
        assert node.late_arrivals > 0
        assert node.metrics.hash_inserts == node.metrics.hash_probes > 0

    def test_one_batch_matches_single_row_batches(self):
        rng = random.Random(23)
        left_rows = [(rng.randrange(20),) for _ in range(150)]
        right_rows = [(rng.randrange(20),) for _ in range(150)]
        row_node, row_out = self._node()
        for row in left_rows:
            row_node.push_batch([row], "left")
        for row in right_rows:
            row_node.push_batch([row], "right")
        batch_node, batch_out = self._node()
        batch_node.push_batch(left_rows, "left")
        batch_node.push_batch(right_rows, "right")
        assert Counter(batch_out) == Counter(row_out)
        assert batch_node.metrics.as_dict() == row_node.metrics.as_dict()

    def test_descending_direction(self):
        node, out = self._node(direction=-1)
        for i in range(50, 0, -1):
            node.push_batch([(i,)], "left")
            node.push_batch([(i,)], "right")
        assert sorted(out) == [(i, i) for i in range(1, 51)]
        assert node.late_arrivals == 0
        assert node.peak_state_tuples() <= 6


class TestOrderAdaptiveExecution:
    def test_forced_merge_plan_equals_hash_plan(self):
        query, relations = _two_source_fixture(sorted_s=False)
        tree = JoinTree.left_deep(("r", "s"))
        forced = {
            frozenset(("r", "s")): JoinStrategy(
                "merge", 1, left_key="r_pk", right_key="s_fk"
            )
        }
        hash_rows, _ = PipelinedExecutor(dict(relations)).execute(query, tree)
        merge_rows, merge_plan = PipelinedExecutor(
            dict(relations), join_strategies=forced
        ).execute(query, tree)
        assert Counter(merge_rows) == Counter(hash_rows) == _reference_join(relations)
        assert merge_plan.join_algorithms()[frozenset(("r", "s"))] == "merge"

    def test_corrective_selects_merge_on_promised_sorted_sources(self):
        query, relations = _two_source_fixture()
        relations["r"] = Relation(
            "r", relations["r"].schema, sorted(relations["r"].rows)
        )
        catalog = Catalog()
        catalog.register("r", relations["r"].schema, TableStatistics(sorted_on=("r_pk",)))
        catalog.register("s", relations["s"].schema, TableStatistics(sorted_on=("s_fk",)))
        processor = CorrectiveQueryProcessor(
            catalog, dict(relations), order_adaptive=True
        )
        report = processor.execute(query)
        assert report.details["phase_join_algorithms"][0] == {"r ⋈ s": "merge"}
        assert Counter(report.rows) == _reference_join(relations)
        baseline = CorrectiveQueryProcessor(catalog, dict(relations)).execute(query)
        assert report.details["peak_state_tuples"] < baseline.details["peak_state_tuples"]
        assert report.simulated_seconds < baseline.simulated_seconds

    def test_corrective_switches_to_merge_mid_flight_without_promises(self):
        query, relations = _two_source_fixture(n=2500)
        catalog = Catalog()
        catalog.register("r", relations["r"].schema)
        catalog.register("s", relations["s"].schema)
        processor = CorrectiveQueryProcessor(
            catalog,
            dict(relations),
            polling_interval_seconds=0.01,
            order_adaptive=True,
        )
        report = processor.execute(query, poll_step_limit=200)
        algorithms = report.details["phase_join_algorithms"]
        assert algorithms[0] == {"r ⋈ s": "hash"}
        assert {"r ⋈ s": "merge"} in algorithms[1:]
        assert Counter(report.rows) == _reference_join(relations)

    def test_monitor_records_orderings(self):
        query, relations = _two_source_fixture(n=60)
        cursors = {name: SourceCursor(name, rel) for name, rel in relations.items()}
        cursors["s"].ensure_order_detector("s_fk")
        plan = PipelinedPlan(
            query, JoinTree.left_deep(("r", "s")), cursors, lambda rows: None
        )
        plan.run()
        monitor = ExecutionMonitor(query)
        observed = monitor.observe(plan, cursors)
        ordering = observed.orderings[("s", "s_fk")]
        assert ordering.direction == 1
        assert ordering.observed == 60


class TestSortedInputExtrapolation:
    def test_progress_based_cardinality_prediction(self):
        catalog = Catalog()
        schema = Schema.from_names(["k"], relation="t")
        catalog.register(
            "t", schema, TableStatistics(attribute_ranges={"k": (0.0, 1000.0)})
        )
        query = SPJAQuery("q", ("t",), ())
        observed = ObservedStatistics()
        detector = OrderDetector()
        feed(detector, range(0, 250))  # advanced to 249 of [0, 1000]
        observed.record_ordering("t", "k", detector)
        observed.record_source("t", tuples_read=250, tuples_passed=250, exhausted=False)
        estimator = SelectivityEstimator(catalog, query, observed)
        # 250 tuples over ~25% of the domain extrapolates to ~1000 total —
        # overriding the 20k default assumption.
        assert estimator.base_cardinality("t") == pytest.approx(1004, rel=0.01)

    def test_seeded_ordering_does_not_collapse_estimate(self):
        """Regression: the extrapolation used to divide *this query's*
        ``tuples_read`` by a progress fraction frozen at a seeded (donor)
        observation's near-complete advance, collapsing the estimate to
        roughly the tuples read so far and overriding a correct published
        cardinality.  Numerator and progress must come from the same
        ordering observation."""
        catalog = Catalog()
        schema = Schema.from_names(["k"], relation="t")
        catalog.register(
            "t",
            schema,
            TableStatistics(cardinality=10_000, attribute_ranges={"k": (0.0, 9999.0)}),
        )
        query = SPJAQuery("q", ("t",), ())
        # Donor query fully read the stream; its observation is seeded.
        donor = OrderDetector()
        feed(donor, range(10_000))
        observed = ObservedStatistics()
        observed.record_ordering("t", "k", donor)
        # This query has only read 30 tuples so far; its own detector
        # snapshot is staler than the seed and must not shrink the estimate.
        local = OrderDetector()
        feed(local, range(30))
        observed.record_ordering("t", "k", local)
        observed.record_source("t", tuples_read=30, tuples_passed=30, exhausted=False)
        estimator = SelectivityEstimator(catalog, query, observed)
        assert estimator.base_cardinality("t") == pytest.approx(10_000, rel=0.01)

    def test_no_extrapolation_without_domain_or_order(self):
        catalog = Catalog()
        schema = Schema.from_names(["k"], relation="t")
        catalog.register("t", schema)
        query = SPJAQuery("q", ("t",), ())
        observed = ObservedStatistics()
        detector = OrderDetector()
        feed(detector, range(0, 250))
        observed.record_ordering("t", "k", detector)
        estimator = SelectivityEstimator(catalog, query, observed)
        assert estimator.base_cardinality("t") == 20_000


class TestReOptimizerStrategySwitch:
    def test_same_tree_strategy_switch_is_recommended(self):
        query, relations = _two_source_fixture(n=400)
        catalog = Catalog()
        for name, rel in relations.items():
            catalog.register(name, rel.schema)
        observed = ObservedStatistics()
        for relation, attr in (("r", "r_pk"), ("s", "s_fk")):
            detector = OrderDetector()
            feed(detector, range(40))
            observed.record_ordering(relation, attr, detector)
            observed.record_source(relation, 40, 40, exhausted=False)
        catalog.set_statistics("r", TableStatistics(cardinality=400))
        catalog.set_statistics("s", TableStatistics(cardinality=400))
        decision = ReOptimizer().evaluate(
            JoinTree.left_deep(("r", "s")),
            SelectivityEstimator(catalog, query, observed),
            OrderingKnowledge.gather(catalog, query, observed),
        )
        assert decision.strategies_changed
        assert decision.switch
        recommended = decision.recommended_strategies[frozenset(("r", "s"))]
        assert recommended.algorithm == "merge"

    def test_without_order_adaptivity_behaviour_is_unchanged(self):
        query, relations = _two_source_fixture(n=400)
        catalog = Catalog()
        for name, rel in relations.items():
            catalog.register(name, rel.schema)
        decision = ReOptimizer().evaluate(
            JoinTree.left_deep(("r", "s")), SelectivityEstimator(catalog, query)
        )
        assert not decision.strategies_changed
        assert decision.recommended_strategies == {}


class TestServingOrderSharing:
    def test_cache_seeds_orderings_for_later_queries(self):
        cache = SharedStatisticsCache()
        observed = ObservedStatistics()
        detector = OrderDetector()
        feed(detector, range(64))
        observed.record_ordering("r", "r_pk", detector)
        cache.absorb(observed)
        assert cache.summary()["orderings"] == 1
        query = SPJAQuery("q", ("r", "s"), (JoinPredicate("s", "s_fk", "r", "r_pk"),))
        seed = cache.seed_for(query)
        assert seed is not None
        assert seed.orderings[("r", "r_pk")].observed == 64
        unrelated = SPJAQuery("u", ("x",), ())
        assert cache.seed_for(unrelated) is None
