"""Tests for join enumeration, the cost model and the optimizer front-end."""

import copy
import functools
import math
from dataclasses import fields

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import count_calls
from repro.core.corrective import CorrectiveQueryProcessor
from repro.engine.cost import CostModel
from repro.experiments.common import build_dataset
from repro.experiments.corrective import worst_left_deep_tree
from repro.optimizer.cost_model import PlanCostModel
from repro.optimizer.enumerator import JoinEnumerator, Optimizer
from repro.optimizer.ordering import JoinStrategy, OrderingKnowledge, plan_join_strategies
from repro.optimizer.plans import JoinTree
from repro.optimizer.reoptimizer import ReOptimizer
from repro.optimizer.statistics import (
    ObservedStatistics,
    OrderingObservation,
    SelectivityEstimator,
    predicate_key,
)
from repro.relational.algebra import JoinGraph, SPJAQuery
from repro.relational.expressions import JoinPredicate
from repro.workloads.queries import (
    paper_query_workload,
    query_3a,
    query_5,
    query_10,
    query_10a,
)
from workload_generator import generate_workload


class TestCostModel:
    def test_tree_cost_monotone_in_cardinality(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_3a()
        estimator = SelectivityEstimator(catalog, query)
        model = PlanCostModel(CostModel())
        small = model.estimate_tree(query, JoinTree.left_deep(["customer", "orders", "lineitem"]), estimator)
        assert small.total_cost > 0
        assert small.output_cardinality > 0
        assert frozenset({"customer", "orders"}) in small.cardinalities

    def test_scaled(self, tiny_tpch):
        """Estimates are linear in the engine's work-unit weights."""
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_3a()
        estimator = SelectivityEstimator(catalog, query)
        tree = JoinTree.left_deep(["customer", "orders", "lineitem"])
        estimate = PlanCostModel().estimate_tree(query, tree, estimator)
        default = CostModel()
        halved = CostModel(
            **{
                field.name: getattr(default, field.name) / 2
                for field in fields(default)
                if field.name != "seconds_per_unit"
            }
        )
        scaled = PlanCostModel(halved).estimate_tree(query, tree, estimator)
        assert scaled.total_cost == pytest.approx(estimate.total_cost / 2)


class TestJoinEnumerator:
    def test_best_tree_covers_all_relations(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        for query in paper_query_workload().values():
            estimator = SelectivityEstimator(catalog, query)
            tree = JoinEnumerator(query, estimator).best_tree()
            assert tree.relations() == frozenset(query.relations)

    def test_no_cross_products(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_5()
        estimator = SelectivityEstimator(catalog, query)
        tree = JoinEnumerator(query, estimator).best_tree()
        # every internal node must be connected by at least one predicate
        for node in tree.internal_nodes():
            assert query.predicates_between(
                node.left.relations(), node.right.relations()
            ), f"cross product at {node}"

    def test_best_tree_avoids_expensive_intermediate(self, tiny_tpch):
        """With true cardinalities, joining customer before lineitem must win for Q3A."""
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_3a()
        estimator = SelectivityEstimator(catalog, query)
        enumerator = JoinEnumerator(query, estimator)
        best = enumerator.best_tree()
        good = enumerator.cost_of(best).total_cost
        bad = enumerator.cost_of(
            JoinTree.join(
                JoinTree.leaf("customer"),
                JoinTree.join(JoinTree.leaf("orders"), JoinTree.leaf("lineitem")),
            )
        ).total_cost
        assert good <= bad
        # customer must join orders before lineitem enters
        order = best.leaf_order()
        assert order.index("customer") < order.index("lineitem")

    def test_left_deep_only_mode(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_5()
        estimator = SelectivityEstimator(catalog, query)
        tree = JoinEnumerator(query, estimator, bushy=False).best_tree()
        assert all(node.right.is_leaf for node in tree.internal_nodes())

    def test_unconnected_relations_raise(self, tiny_tpch):
        query = SPJAQuery(
            name="pair",
            relations=("customer", "orders"),
            join_predicates=(JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),),
        )
        catalog = tiny_tpch.catalog()
        estimator = SelectivityEstimator(catalog, query)
        enumerator = JoinEnumerator(query, estimator)
        with pytest.raises(ValueError):
            enumerator._best(frozenset({"customer"}) | frozenset({"nonexistent"}))


@st.composite
def observed_statistics(draw, query):
    """Arbitrary mid-run observations for ``query``: source counters,
    subexpression selectivities, multiplicative flags, order observations."""
    observed = ObservedStatistics()
    for relation in query.relations:
        if draw(st.booleans()):
            read = draw(st.integers(0, 5000))
            observed.record_source(
                relation, read, draw(st.integers(0, read)), draw(st.booleans())
            )
    subsets = [
        frozenset(left | right)
        for size in range(2, len(query.relations) + 1)
        for left, right, *_ in query.join_graph.splits(frozenset(query.relations[:size]))
    ]
    drawn = draw(st.lists(st.sampled_from(subsets), max_size=4, unique=True)) if subsets else ()
    for relations in drawn:
        observed.selectivities[relations] = draw(st.floats(1e-9, 1.0))
    for predicate in query.join_predicates:
        if draw(st.booleans()):
            observed.multiplicative_factors[predicate_key(predicate)] = draw(
                st.floats(1.0, 50.0)
            )
        for relation, attribute in (
            (predicate.left_relation, predicate.left_attr),
            (predicate.right_relation, predicate.right_attr),
        ):
            if draw(st.booleans()):
                low = draw(st.integers(0, 1000))
                observed.orderings[relation, attribute] = OrderingObservation(
                    relation,
                    attribute,
                    # Skewed towards what makes a node merge-eligible, so
                    # that derived orderings above merge nodes get drawn too.
                    observed=draw(st.sampled_from((0, 10, 400))),
                    direction=draw(st.sampled_from((1, 1, 1, -1, None))),
                    in_order_fraction=draw(st.sampled_from((1.0, 0.9, 0.5))),
                    min_value=low,
                    max_value=low + draw(st.integers(0, 1000)),
                    promised_direction=draw(st.sampled_from((1, -1, None))),
                )
    return observed


@st.composite
def enumeration_cases(draw):
    query = draw(st.sampled_from((query_3a, query_5, query_10a)))()
    return (
        query,
        draw(observed_statistics(query)),
        draw(st.booleans()),  # bushy
        draw(st.booleans()),  # with ordering knowledge
        draw(st.booleans()),  # catalog publishes cardinalities
    )


def exhaustive_best_tree(query, estimator, bushy, ordering):
    """The enumeration as it was before costs were composed: every candidate
    of every valid split is built and costed from scratch, the first minimum
    wins."""
    model = PlanCostModel()
    memo = {}

    def best(relations):
        if relations in memo:
            return memo[relations]
        if len(relations) == 1:
            (relation,) = relations
            memo[relations] = JoinTree.leaf(relation)
            return memo[relations]
        tree, tree_cost = None, None
        for left, right, *_ in query.join_graph.splits(relations, bushy):
            candidate = JoinTree.join(best(left), best(right))
            strategies = (
                plan_join_strategies(query, candidate, ordering)
                if ordering is not None
                else None
            )
            cost = model.estimate_tree(query, candidate, estimator, strategies).total_cost
            if tree is None or cost < tree_cost:
                tree, tree_cost = candidate, cost
        memo[relations] = tree
        return tree

    return best(frozenset(query.relations))


class TestComposedCosts:
    """The memo composes costs node by node; ``estimate_tree`` walks a whole
    tree.  They must agree to the bit, or a corrective run would switch
    plans at different polls than it used to."""

    @pytest.fixture(scope="class", autouse=True)
    def catalogs(self, request, tiny_tpch):
        # On the class, not a test argument: Hypothesis prints arguments.
        request.cls.catalogs = {
            flag: tiny_tpch.catalog(with_cardinalities=flag) for flag in (False, True)
        }

    def check(self, query, observed, bushy, with_ordering, with_cardinalities):
        catalog = self.catalogs[with_cardinalities]
        ordering = (
            OrderingKnowledge.gather(catalog, query, observed) if with_ordering else None
        )
        enumerator = JoinEnumerator(
            query,
            SelectivityEstimator(catalog, query, observed),
            bushy=bushy,
            ordering=ordering,
        )
        best = enumerator.best_tree()
        # The reference shares nothing with the enumeration, not even the
        # estimator's memos.
        reference_estimator = SelectivityEstimator(catalog, query, observed)
        assert enumerator._memo
        for entry in enumerator._memo.values():
            strategies = enumerator.strategies_for(entry.tree)
            reference = PlanCostModel().estimate_tree(
                query, entry.tree, reference_estimator, strategies
            )
            assert entry.cost == reference.total_cost
            assert entry.cardinality == reference.output_cardinality
            assert entry.strategies == (strategies or {})
        assert best == exhaustive_best_tree(query, reference_estimator, bushy, ordering)
        return enumerator

    @settings(max_examples=150, deadline=None)
    @given(case=enumeration_cases())
    def test_every_memo_entry_equals_from_scratch_costing(self, case):
        self.check(*case)

    def test_derived_orderings_compose_through_the_memo(self):
        """nation ⋈ supplier merges on the nation key, so its output is
        ordered on it and the join with customer above can merge as well —
        the entry must carry that ordering up, not just its own strategy."""
        query = query_5()
        observed = ObservedStatistics()
        for relation, attribute in (
            ("nation", "n_nationkey"),
            ("supplier", "s_nationkey"),
            ("customer", "c_nationkey"),
        ):
            observed.orderings[relation, attribute] = OrderingObservation(
                relation, attribute, observed=400, direction=1, min_value=0, max_value=24
            )
        enumerator = self.check(query, observed, True, True, True)
        merged = {node for entry in enumerator._memo.values() for node in entry.strategies}
        assert frozenset(("nation", "supplier")) in merged
        assert frozenset(("nation", "supplier", "customer")) in merged

    def test_twenty_evaluations_build_the_split_table_once(self, tiny_tpch, monkeypatch):
        calls = count_calls(monkeypatch, JoinGraph, "connected")
        catalog = tiny_tpch.catalog()
        query = query_5()
        tree = JoinTree.left_deep(
            ["region", "nation", "customer", "orders", "lineitem", "supplier"]
        )
        reoptimizer = ReOptimizer()
        reoptimizer.evaluate(tree, SelectivityEstimator(catalog, query))
        built = len(calls)
        assert built > 0
        for read in range(19):
            observed = ObservedStatistics()
            observed.record_source("lineitem", 10 * read, 10 * read, False)
            reoptimizer.evaluate(tree, SelectivityEstimator(catalog, query, observed))
        assert reoptimizer.invocations == 20
        assert len(calls) == built

    def test_same_name_different_predicates_do_not_share_splits(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        relations = ("customer", "orders", "lineitem", "supplier")
        shared = (
            JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),
            JoinPredicate("orders", "o_orderkey", "lineitem", "l_orderkey"),
        )
        via_lineitem = SPJAQuery(
            "same", relations, shared + (JoinPredicate("lineitem", "l_suppkey", "supplier", "s_suppkey"),)
        )
        via_customer = SPJAQuery(
            "same", relations, shared + (JoinPredicate("customer", "c_nationkey", "supplier", "s_nationkey"),)
        )
        for query in (via_lineitem, via_customer, via_lineitem):
            tree = Optimizer(catalog).optimize_tree(query)
            for node in tree.internal_nodes():
                assert query.predicates_between(
                    node.left.relations(), node.right.relations()
                ), f"{query.join_predicates[-1]}: cross product at {node}"


@st.composite
def join_trees(draw, query, relations=None):
    """Any valid (possibly bushy) join tree over ``relations``."""
    relations = frozenset(query.relations) if relations is None else relations
    if len(relations) == 1:
        (relation,) = relations
        return JoinTree.leaf(relation)
    left, right, *_ = draw(st.sampled_from(list(query.join_graph.splits(relations))))
    return JoinTree.join(draw(join_trees(query, left)), draw(join_trees(query, right)))


@functools.lru_cache(maxsize=None)
def differential_query_and_catalog(seed):
    workload = generate_workload(seed)
    return workload.query, workload.catalog()


WEIGHTS = st.floats(0.0, 4.0)


class TestCostFloor:
    """``JoinEnumerator.cost_floor`` lets ``ReOptimizer.poll`` skip the
    enumeration; it must never exceed the optimum, and a poll it screens
    out must be one that ``evaluate`` would not have switched at."""

    @pytest.fixture(scope="class", autouse=True)
    def catalogs(self, request, tiny_tpch):
        request.cls.catalogs = {
            flag: tiny_tpch.catalog(with_cardinalities=flag) for flag in (False, True)
        }

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_floor_bounds_the_optimum_and_screens_only_non_switches(self, data):
        source = data.draw(st.sampled_from((query_3a, query_10a, query_5, None)))
        if source is None:
            query, catalog = differential_query_and_catalog(data.draw(st.integers(0, 31)))
        else:
            query, catalog = source(), self.catalogs[data.draw(st.booleans())]
        observed = data.draw(observed_statistics(query))
        current = data.draw(join_trees(query))
        order_adaptive = data.draw(st.booleans())
        cost_model = CostModel(
            **{
                name: data.draw(WEIGHTS)
                for name in (
                    "tuple_read", "hash_insert", "hash_probe", "comparison",
                    "predicate_eval", "tuple_copy", "aggregate_update",
                )
            }
        )
        knowledge = OrderingKnowledge.gather(catalog, query, observed)
        ordering = knowledge if order_adaptive else None
        estimator = SelectivityEstimator(catalog, query, observed)
        enumerator = JoinEnumerator(query, estimator, cost_model, ordering=ordering)
        floor = enumerator.cost_floor()
        if len(query.relations) == 1:
            assert floor is None
        else:
            assert floor <= enumerator.best_entry().cost

        reoptimizer = ReOptimizer(cost_model, data.draw(st.floats(0.05, 1.5)))
        # A running merge assignment may exist without order adaptivity too,
        # and may be paying for disorder it did not expect.
        in_order = data.draw(st.sampled_from((0.0, 0.5, 1.0)))
        forced = {
            node.relations(): JoinStrategy("merge", 1, None, None, in_order, in_order)
            for node in current.internal_nodes()
        }
        strategies = data.draw(
            st.sampled_from((None, plan_join_strategies(query, current, knowledge), forced))
        )
        polled = reoptimizer.poll(current, estimator, ordering, strategies)
        evaluated = reoptimizer.evaluate(current, estimator, ordering, strategies)
        assert reoptimizer.invocations == 2
        event(f"screened: {polled is None}, switch: {evaluated.switch}")
        if polled is None:
            assert evaluated.switch is False
        else:
            assert polled == evaluated

    def test_merge_sides_are_floored_at_two_comparisons(self):
        """Two sorted inputs merge at two comparisons a tuple, well under a
        hash insert + probe; a floor charging hash rates would exceed the
        optimum."""
        query = SPJAQuery(
            name="pair",
            relations=("customer", "orders"),
            join_predicates=(JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),),
        )
        observed = ObservedStatistics()
        for relation, attribute in (("customer", "c_custkey"), ("orders", "o_custkey")):
            observed.orderings[relation, attribute] = OrderingObservation(
                relation, attribute, observed=400, direction=1, min_value=0, max_value=60
            )
        catalog = self.catalogs[True]
        enumerator = JoinEnumerator(
            query,
            SelectivityEstimator(catalog, query, observed),
            ordering=OrderingKnowledge.gather(catalog, query, observed),
        )
        best = enumerator.best_entry()
        assert best.strategies
        assert enumerator.cost_floor() <= best.cost

    def test_a_running_merge_assignment_halves_the_screened_weight(self, tiny_tpch):
        """Without order adaptivity the recommendation is all hash joins, so a
        running merge assignment can be switched away from on the same tree,
        at half the stitch-up weight; the screen must allow for that."""
        catalog = self.catalogs[True]
        query = query_3a()
        cost_model = CostModel(comparison=2.0)
        tree = Optimizer(catalog, cost_model).optimize_tree(query)
        merges = {
            node.relations(): JoinStrategy("merge", 1, None, None, 0.0, 0.0)
            for node in tree.internal_nodes()
        }
        observed = ObservedStatistics()
        for relation in query.relations:
            # halfway: a switch the screen closes at the full stitch-up weight
            read = int(len(tiny_tpch[relation]) * 0.5)
            observed.record_source(relation, read, read, False)
        estimator = SelectivityEstimator(catalog, query, observed)
        reoptimizer = ReOptimizer(cost_model)
        evaluated = reoptimizer.evaluate(tree, estimator, None, merges)
        assert evaluated.switch and evaluated.same_tree
        assert reoptimizer.poll(tree, estimator, None, merges) == evaluated

    def test_floor_is_the_left_fold_on_every_python(self):
        """Q5's legs sum to 9276.900000000001 left to right and to 9276.9
        compensated (the float ``sum()`` of Python 3.12 on), which moves the
        floor's last bit; the screen must not depend on the interpreter."""
        query = query_5()
        catalog = self.catalogs[True]
        enumerator = JoinEnumerator(
            query, SelectivityEstimator(catalog, query), CostModel(hash_insert=1.1)
        )
        assert repr(enumerator.cost_floor()) == "10777.501750586136"

    def test_negative_weights_and_single_relations_are_not_screened(self):
        query, catalog = next(
            differential_query_and_catalog(seed)
            for seed in range(100)
            if len(differential_query_and_catalog(seed)[0].relations) == 1
        )
        enumerator = JoinEnumerator(query, SelectivityEstimator(catalog, query))
        assert enumerator.cost_floor() is None
        query = query_3a()
        catalog = self.catalogs[True]
        negative = CostModel(tuple_copy=-0.5)
        enumerator = JoinEnumerator(query, SelectivityEstimator(catalog, query), negative)
        assert enumerator.cost_floor() is None


#: ``ReOptimizer.evaluate`` over the golden fig2 workload (uniform data, scale
#: 0.003, seed 2004, each query from its worst left-deep tree, polls every
#: 0.25 simulated seconds), recorded at the commit before costs were composed:
#: (query, switch, recommended tree, current cost, recommended cost, remaining)
GOLDEN_DECISIONS = (
    ("Q3A", True, "((customer ⋈ orders) ⋈ lineitem)", 848096.7430712336, 218790.64876033057, 0.9208899876390606),
    ("Q3A", False, "((customer ⋈ orders) ⋈ lineitem)", 112136.80331180937, 124690.69657213296, 0.8170580964153276),
    ("Q3A", False, "((customer ⋈ orders) ⋈ lineitem)", 43408.464111231646, 62267.572114613184, 0.5350701402805611),
    ("Q3A", False, "((customer ⋈ orders) ⋈ lineitem)", 31214.66239340979, 58165.026645643375, 0.3667334669338677),
    ("Q3A", False, "((customer ⋈ orders) ⋈ lineitem)", 17236.28578222588, 52057.065140257975, 0.19839679358717435),
    ("Q10A", True, "(((customer ⋈ nation) ⋈ orders) ⋈ lineitem)", 533934.749708996, 227025.33701851655, 0.9061148857319333),
    ("Q10A", False, "(((customer ⋈ nation) ⋈ orders) ⋈ lineitem)", 107253.20408623986, 122587.26027013436, 0.7776405188387894),
    ("Q10A", False, "(((customer ⋈ nation) ⋈ orders) ⋈ lineitem)", 25023.365504767724, 45146.59416134334, 0.3833833833833834),
    ("Q10A", False, "(((customer ⋈ nation) ⋈ orders) ⋈ lineitem)", 7956.050692476033, 37373.38098398406, 0.11911911911911911),
    ("Q5", True, "(((customer ⋈ ((nation ⋈ region) ⋈ supplier)) ⋈ orders) ⋈ lineitem)", 256812.0186734115, 114893.9544621027, 0.8864477906689706),
    ("Q5", False, "(((customer ⋈ ((nation ⋈ region) ⋈ supplier)) ⋈ orders) ⋈ lineitem)", 39137.83616583427, 52175.09005185501, 0.6001599360255898),
    ("Q5", False, "(((customer ⋈ ((nation ⋈ region) ⋈ supplier)) ⋈ orders) ⋈ lineitem)", 32436.63020629615, 53740.984920884744, 0.43222710915633744),
    ("Q5", False, "(((customer ⋈ ((nation ⋈ region) ⋈ supplier)) ⋈ orders) ⋈ lineitem)", 20802.54070951903, 49756.152589636295, 0.2642942822870852),
    ("Q5", False, "(((customer ⋈ ((nation ⋈ region) ⋈ supplier)) ⋈ orders) ⋈ lineitem)", 7769.071516845223, 44196.66825558009, 0.09636145541783286),
)


def test_decision_sequence_of_the_golden_workload_is_unchanged(monkeypatch):
    """Every poll is recorded with the full ``evaluate`` of its inputs (on a
    twin re-optimizer, so the run's own counters are untouched); the run
    itself goes through ``poll``, which enumerates only where the cost
    floor leaves a switch possible, and must switch exactly where
    ``evaluate`` says so."""
    dataset = build_dataset("uniform", 0.003, 0.0, 2004)
    recorded = []  # (query, full evaluation, screened decision switched)
    enumerated = []
    for query in (query_3a(), query_10a(), query_5()):
        processor = CorrectiveQueryProcessor(
            dataset.catalog_no_statistics.copy(),
            dataset.sources,
            polling_interval_seconds=0.25,
        )
        reoptimizer = processor.reoptimizer
        twin = copy.copy(reoptimizer)
        poll, evaluate = reoptimizer.poll, reoptimizer.evaluate

        def recording(*args, **kwargs):
            decision = poll(*args, **kwargs)
            recorded.append(
                (query.name, twin.evaluate(*args, **kwargs), bool(decision and decision.switch))
            )
            return decision

        def enumerating(*args, **kwargs):
            enumerated.append(query.name)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(reoptimizer, "poll", recording)
        monkeypatch.setattr(reoptimizer, "evaluate", enumerating)
        report = processor.execute(query, initial_tree=worst_left_deep_tree(query, dataset))
        assert report.reoptimizer_polls == twin.invocations

    assert len(recorded) == len(GOLDEN_DECISIONS)
    for (name, decision, screened_switch), golden in zip(recorded, GOLDEN_DECISIONS):
        query_name, switch, tree, current_cost, recommended_cost, remaining = golden
        assert (name, decision.switch, str(decision.recommended_tree)) == (
            query_name,
            switch,
            tree,
        )
        assert screened_switch == decision.switch
        assert decision.remaining_fraction == remaining
        # Not ``==``: the estimator multiplies cardinalities in frozenset
        # iteration order, so the last bit of a cost already varied with
        # PYTHONHASHSEED at the recorded commit.  Bit-equality of composed and
        # from-scratch costs within one process is the property test above.
        assert math.isclose(decision.current_cost, current_cost, rel_tol=1e-12)
        assert math.isclose(decision.recommended_cost, recommended_cost, rel_tol=1e-12)
    # The screen skips the enumeration at every poll here but the switches.
    assert len(enumerated) == sum(golden[1] for golden in GOLDEN_DECISIONS)


class TestOptimizer:
    def test_optimize_produces_valid_plan(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        optimizer = Optimizer(catalog)
        for query in paper_query_workload().values():
            plan = optimizer.optimize(query)
            assert plan.join_tree.relations() == frozenset(query.relations)
            assert plan.estimated_cost > 0

    def test_window_preaggregation_points_inserted(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        optimizer = Optimizer(catalog)
        plan = optimizer.optimize(query_3a(), preaggregation="window")
        assert len(plan.preagg_points) == 1
        assert plan.preagg_points[0].mode == "window"

    def test_traditional_preaggregation_only_where_beneficial(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        optimizer = Optimizer(catalog)
        beneficial = optimizer.optimize(query_3a(), preaggregation="traditional")
        not_beneficial = optimizer.optimize(query_5(), preaggregation="traditional")
        assert len(beneficial.preagg_points) == 1
        assert len(not_beneficial.preagg_points) == 0

    def test_no_preaggregation_for_spj(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = SPJAQuery(
            name="spj",
            relations=("customer", "orders"),
            join_predicates=(JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),),
        )
        plan = Optimizer(catalog).optimize(query, preaggregation="window")
        assert plan.preagg_points == ()

    def test_observed_statistics_change_plan_choice(self, tiny_tpch):
        """Feeding the optimizer an observed explosion steers it away from that join."""
        catalog = tiny_tpch.catalog(with_cardinalities=False)
        query = query_10()
        optimizer = Optimizer(catalog)
        baseline = optimizer.optimize_tree(query)

        observed = ObservedStatistics()
        # Claim the baseline plan's first join explodes: selectivity near 1.
        first_join = next(iter(baseline.internal_nodes())).relations
        for node in baseline.subtrees():
            if not node.is_leaf:
                first_join = node.relations()
                break
        observed.record_selectivity(first_join, 0.9)
        revised = optimizer.optimize_tree(query, observed)
        assert revised.leaf_order() != baseline.leaf_order() or str(revised) != str(baseline)
