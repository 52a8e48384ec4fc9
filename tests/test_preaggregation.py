"""Tests for adjustable-window pre-aggregation (paper Section 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_aggregates, preaggregate
from repro.core.preaggregation import (
    WindowDecision,
    WindowPolicy,
    WindowedPreAggregator,
)
from repro.engine.operators.aggregate import GroupAccumulator
from repro.engine.pipelined import PipelinedExecutor
from repro.optimizer.plans import JoinTree, PlanError, PreAggPoint
from repro.relational.expressions import Aggregate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.workloads.queries import query_3a, query_10

SCHEMA = Schema.from_names(["g", "v"])


def relation_from_groups(groups):
    """groups: list of (group, value) pairs."""
    return Relation("t", SCHEMA, list(groups))


def repeated_groups(n, distinct):
    return relation_from_groups([(i % distinct, i) for i in range(n)])


def unique_groups(n):
    return relation_from_groups([(i, i) for i in range(n)])


AGGS = [Aggregate("sum", "v", "total"), Aggregate("count", None, "n")]


def final_results(pre, relation):
    final = GroupAccumulator(pre.output_schema, ["g"], AGGS, input_is_partial=True)
    final.accumulate_batch(preaggregate(pre, relation.rows))
    return sorted(final.results())


def direct_results(relation):
    direct = GroupAccumulator(SCHEMA, ["g"], AGGS)
    direct.accumulate_batch(relation.rows)
    return sorted(direct.results())


class TestWindowPolicy:
    def test_grow_on_effective_window(self):
        policy = WindowPolicy(initial_window=8, grow_factor=2, effectiveness_threshold=0.75)
        assert policy.next_size(8, reduction_ratio=0.5) == 16

    def test_shrink_on_ineffective_window(self):
        policy = WindowPolicy(initial_window=8, shrink_factor=2)
        assert policy.next_size(8, reduction_ratio=0.95) == 4

    def test_bounds_respected(self):
        policy = WindowPolicy(initial_window=8, min_window=2, max_window=16)
        assert policy.next_size(16, 0.1) == 16
        assert policy.next_size(2, 1.0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowPolicy(min_window=0)
        with pytest.raises(ValueError):
            WindowPolicy(initial_window=100, max_window=50)
        with pytest.raises(ValueError):
            WindowPolicy(grow_factor=1)
        with pytest.raises(ValueError):
            WindowPolicy(effectiveness_threshold=0.0)


class TestCorrectness:
    def test_equals_direct_aggregation_on_repetitive_data(self):
        relation = repeated_groups(500, distinct=10)
        pre = WindowedPreAggregator(SCHEMA, ["g"], AGGS)
        assert final_results(pre, relation) == direct_results(relation)

    def test_equals_direct_aggregation_on_unique_data(self):
        relation = unique_groups(300)
        pre = WindowedPreAggregator(SCHEMA, ["g"], AGGS)
        assert final_results(pre, relation) == direct_results(relation)

    def test_requires_group_attributes(self):
        with pytest.raises(PlanError):
            WindowedPreAggregator(SCHEMA, [], AGGS)


class TestAdaptivity:
    def test_window_grows_on_repetitive_data(self):
        relation = repeated_groups(2000, distinct=4)
        operator = WindowedPreAggregator(
            SCHEMA, ["g"], AGGS, policy=WindowPolicy(initial_window=16)
        )
        preaggregate(operator, relation.rows)
        assert operator.current_window_size > 16
        assert operator.overall_reduction < 0.25
        sizes = [d.window_size for d in operator.window_decisions]
        assert sizes == sorted(sizes)  # monotonically growing here

    def test_window_shrinks_to_passthrough_on_unique_data(self):
        relation = unique_groups(2000)
        operator = WindowedPreAggregator(
            SCHEMA, ["g"], AGGS, policy=WindowPolicy(initial_window=64)
        )
        rows = preaggregate(operator, relation.rows)
        assert len(rows) == len(relation)  # no coalescing possible
        assert operator.current_window_size <= WindowPolicy().reprobe_window
        assert any(d.next_window_size < d.window_size for d in operator.window_decisions)

    def test_reprobe_after_passthrough(self):
        """Unique prefix then heavily repetitive suffix: the operator recovers."""
        prefix = [(i, i) for i in range(300)]
        suffix = [(9999, i) for i in range(8000)]
        relation = relation_from_groups(prefix + suffix)
        policy = WindowPolicy(initial_window=32, reprobe_interval=1024, reprobe_window=16)
        operator = WindowedPreAggregator(SCHEMA, ["g"], AGGS, policy=policy)
        preaggregate(operator, relation.rows)
        assert operator.current_window_size > 1
        assert operator.overall_reduction < 0.9

    def test_decisions_record_reduction(self):
        relation = repeated_groups(200, distinct=2)
        operator = WindowedPreAggregator(
            SCHEMA, ["g"], AGGS, policy=WindowPolicy(initial_window=50)
        )
        preaggregate(operator, relation.rows)
        decision = operator.window_decisions[0]
        assert isinstance(decision, WindowDecision)
        assert decision.tuples_in == 50
        assert decision.tuples_out == 2
        assert decision.reduction_ratio == pytest.approx(2 / 50)


class TestPushInterface:
    def test_feed_and_flush(self):
        pre = WindowedPreAggregator(
            SCHEMA, ["g"], AGGS, policy=WindowPolicy(initial_window=4)
        )
        emitted = []
        for row in [(1, 10), (1, 20), (2, 5), (2, 5), (1, 1)]:
            emitted.extend(pre.feed(row))
        emitted.extend(pre.flush())
        final = GroupAccumulator(pre.output_schema, ["g"], AGGS, input_is_partial=True)
        final.accumulate_batch(emitted)
        results = dict((row[0], (row[1], row[2])) for row in final.results())
        assert results == {1: (31, 3), 2: (10, 2)}

    def test_output_schema(self):
        pre = WindowedPreAggregator(SCHEMA, ["g"], AGGS)
        assert pre.output_schema.names == ("g", "total", "n")

    def test_overall_reduction_tracking(self):
        pre = WindowedPreAggregator(
            SCHEMA, ["g"], AGGS, policy=WindowPolicy(initial_window=10)
        )
        for i in range(100):
            pre.feed((0, i))
        pre.flush()
        assert pre.overall_reduction < 0.2
        assert pre.current_window_size > 10
        assert pre.window_decisions


# ---------------------------------------------------------------------------
# Property: windowed pre-aggregation followed by coalescing equals direct
# aggregation for every input and window policy — the distributivity of
# aggregation over union that makes the operator safe to insert anywhere.
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), st.integers(-50, 50)),
        max_size=150,
    ),
    initial_window=st.integers(min_value=1, max_value=32),
    threshold=st.floats(min_value=0.1, max_value=1.0),
)
def test_property_windowed_preaggregation_is_exact(rows, initial_window, threshold):
    relation = relation_from_groups(rows)
    policy = WindowPolicy(
        initial_window=initial_window, effectiveness_threshold=threshold
    )
    pre = WindowedPreAggregator(SCHEMA, ["g"], AGGS, policy=policy)
    assert final_results(pre, relation) == direct_results(relation)


# ---------------------------------------------------------------------------
# Pre-aggregation points as stages of the pipelined engine: every plan gives
# the answers of the same join tree without pre-aggregation, tuple at a time
# and batched.
# ---------------------------------------------------------------------------

ENGINE_BATCHES = [None, 1, 7, 64]

LINEITEM_TREES = {
    "Q3A": JoinTree.left_deep(["customer", "orders", "lineitem"]),
    "Q10": JoinTree.left_deep(["customer", "nation", "orders", "lineitem"]),
}
QUERIES = {"Q3A": query_3a, "Q10": query_10}


def run_plan(sources, query, tree, batch_size, points=()):
    executor = PipelinedExecutor(sources, batch_size=batch_size)
    rows, _ = executor.execute(query, tree, preagg_points=points)
    return rows


@pytest.mark.parametrize("batch_size", ENGINE_BATCHES)
@pytest.mark.parametrize("mode", ["window", "traditional"])
@pytest.mark.parametrize("query_name", ["Q3A", "Q10"])
def test_lineitem_stage_gives_the_plain_plans_answers(tiny_tpch, query_name, mode, batch_size):
    sources = tiny_tpch.as_sources()
    query, tree = QUERIES[query_name](), LINEITEM_TREES[query_name]
    point = PreAggPoint(frozenset({"lineitem"}), mode, ("l_orderkey",))
    plain = run_plan(sources, query, tree, batch_size)
    assert plain
    assert_same_aggregates(run_plan(sources, query, tree, batch_size, (point,)), plain)


#: Points on the two-relation subtree {orders, lineitem}: its root join's
#: output goes through the stage (``node.parent``), not a leaf binding.
SUBTREE_CASES = {
    "Q3A": (
        query_3a,
        JoinTree.join(
            JoinTree.leaf("customer"),
            JoinTree.join(JoinTree.leaf("orders"), JoinTree.leaf("lineitem")),
        ),
        (
            PreAggPoint(
                frozenset({"orders", "lineitem"}),
                "window",
                ("l_orderkey", "o_custkey", "o_orderdate", "o_shippriority"),
            ),
        ),
    ),
    "Q10": (
        query_10,
        JoinTree.join(
            JoinTree.join(JoinTree.leaf("customer"), JoinTree.leaf("nation")),
            JoinTree.join(JoinTree.leaf("orders"), JoinTree.leaf("lineitem")),
        ),
        (PreAggPoint(frozenset({"orders", "lineitem"}), "traditional", ("o_custkey",)),),
    ),
}


@pytest.mark.parametrize("batch_size", ENGINE_BATCHES)
@pytest.mark.parametrize("case", sorted(SUBTREE_CASES))
def test_subtree_stage_gives_the_plain_plans_answers(tiny_tpch, case, batch_size):
    sources = tiny_tpch.as_sources()
    make_query, tree, points = SUBTREE_CASES[case]
    query = make_query()
    plain = run_plan(sources, query, tree, batch_size)
    assert plain
    assert_same_aggregates(run_plan(sources, query, tree, batch_size, points), plain)


def test_stage_rejections(tiny_tpch):
    sources = tiny_tpch.as_sources()
    query, tree = query_3a(), LINEITEM_TREES["Q3A"]
    point = PreAggPoint(frozenset({"lineitem"}), "window", ("l_orderkey",))
    compiled = PipelinedExecutor(sources, batch_size=64, engine_mode="compiled")
    with pytest.raises(PlanError, match="compiled.*pre-aggregation"):
        compiled.execute(query, tree, preagg_points=(point,))
    # {customer, lineitem} is no subtree; the root has no join above it; a
    # window folds raw tuples, so no point may sit above another.
    for below in ({"customer", "lineitem"}, {"customer", "orders", "lineitem"}):
        stray = PreAggPoint(frozenset(below), "window", ("l_orderkey",))
        with pytest.raises(PlanError):
            run_plan(sources, query, tree, None, (stray,))
    _, bushy, (outer,) = SUBTREE_CASES["Q3A"]
    with pytest.raises(PlanError, match="above another"):
        run_plan(sources, query, bushy, None, (outer, point))
