"""Tests for join trees, pre-aggregation points and physical plans."""

import pytest

from repro.optimizer.plans import JoinTree, PhysicalPlan, PlanError, PreAggPoint
from repro.workloads.queries import query_3a


class TestJoinTree:
    def test_leaf(self):
        leaf = JoinTree.leaf("r")
        assert leaf.is_leaf
        assert leaf.relations() == frozenset({"r"})
        assert leaf.leaf_order() == ("r",)
        assert leaf.depth() == 1
        assert str(leaf) == "r"

    def test_join_composition(self):
        tree = JoinTree.join(JoinTree.leaf("a"), JoinTree.leaf("b"))
        assert not tree.is_leaf
        assert tree.relations() == frozenset({"a", "b"})
        assert tree.depth() == 2

    def test_left_deep_builder(self):
        tree = JoinTree.left_deep(["a", "b", "c"])
        assert tree.leaf_order() == ("a", "b", "c")
        assert all(node.right.is_leaf for node in tree.internal_nodes())

    def test_bushy_tree_walks(self):
        tree = JoinTree.join(
            JoinTree.join(JoinTree.leaf("a"), JoinTree.leaf("b")),
            JoinTree.join(JoinTree.leaf("c"), JoinTree.leaf("d")),
        )
        assert len(list(tree.internal_nodes())) == 3
        assert len(list(tree.subtrees())) == 7

    def test_invalid_constructions(self):
        with pytest.raises(PlanError):
            JoinTree(relation="a", left=JoinTree.leaf("b"), right=JoinTree.leaf("c"))
        with pytest.raises(PlanError):
            JoinTree(relation=None, left=JoinTree.leaf("b"), right=None)
        with pytest.raises(PlanError):
            JoinTree.left_deep([])


class TestPreAggPoint:
    def test_valid_modes(self):
        for mode in ("window", "traditional"):
            point = PreAggPoint(frozenset({"lineitem"}), mode, ("l_orderkey",))
            assert point.mode == mode

    def test_invalid_mode(self):
        # A pseudogroup is a window of one tuple, not a mode of its own.
        for mode in ("bogus", "pseudogroup"):
            with pytest.raises(PlanError):
                PreAggPoint(frozenset({"lineitem"}), mode, ())


class TestPhysicalPlan:
    def test_plan_checks_relation_coverage(self):
        query = query_3a()
        with pytest.raises(PlanError):
            PhysicalPlan(query, JoinTree.left_deep(["customer", "orders"]))

    def test_preagg_describe(self):
        query = query_3a()
        tree = JoinTree.left_deep(["customer", "orders", "lineitem"])
        point = PreAggPoint(frozenset({"lineitem"}), "window", ("l_orderkey",))
        plan = PhysicalPlan(query, tree, preagg_points=(point,), estimated_cost=42.0)
        assert plan.preagg_points == (point,)
        text = plan.describe()
        assert "42.0" in text and "lineitem" in text
