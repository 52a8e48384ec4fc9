"""Tests for the join operators, checked against a brute-force reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_bag, reference_join
from repro.engine.operators.hash_join import HybridHashJoin
from repro.engine.operators.pipelined_hash import SymmetricHashJoin
from repro.engine.operators.scan import Scan
from repro.relational.expressions import BinaryPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema

LEFT_SCHEMA = Schema.from_names(["lk", "lv"], relation="left")
RIGHT_SCHEMA = Schema.from_names(["rk", "rv"], relation="right")


def make_left(keys):
    return Relation("left", LEFT_SCHEMA, [(k, f"L{i}") for i, k in enumerate(keys)])


def make_right(keys):
    return Relation("right", RIGHT_SCHEMA, [(k, f"R{i}") for i, k in enumerate(keys)])


LEFT = make_left([1, 2, 2, 3, 5])
RIGHT = make_right([2, 3, 3, 4])
EXPECTED = reference_join(LEFT, RIGHT, "lk", "rk")


class TestEquiJoins:
    def test_hybrid_hash_join_matches_reference(self, people, simple_orders):
        join = HybridHashJoin(Scan(simple_orders), Scan(people), "o_pid", "pid")
        # people.pid is unique; the dangling order (o_pid=9) must not appear
        rows = join.run_to_completion()
        assert len(rows) == 6
        assert all(row[1] == row[3] for row in rows)

    def test_hybrid_hash_small(self):
        join = HybridHashJoin(Scan(LEFT), Scan(RIGHT), "lk", "rk")
        assert_same_bag(join.run_to_completion(), EXPECTED)

    def test_symmetric_hash_small(self):
        join = SymmetricHashJoin(Scan(LEFT), Scan(RIGHT), "lk", "rk")
        assert_same_bag(join.run_to_completion(), EXPECTED)

    def test_empty_inputs(self):
        empty_left = make_left([])
        join = SymmetricHashJoin(Scan(empty_left), Scan(RIGHT), "lk", "rk")
        assert join.run_to_completion() == []
        join2 = HybridHashJoin(Scan(LEFT), Scan(make_right([])), "lk", "rk")
        assert join2.run_to_completion() == []


class TestResidualPredicates:
    def test_residual_filters_matches(self):
        residual = BinaryPredicate("lv", "rv", lambda a, b: a.endswith("0") and b.endswith("0"))
        join = SymmetricHashJoin(Scan(LEFT), Scan(RIGHT), "lk", "rk", residual=residual)
        rows = join.run_to_completion()
        assert all(row[1].endswith("0") and row[3].endswith("0") for row in rows)

    def test_hybrid_hash_residual(self):
        residual = BinaryPredicate("lv", "rv", lambda a, b: False)
        join = HybridHashJoin(Scan(LEFT), Scan(RIGHT), "lk", "rk", residual=residual)
        assert join.run_to_completion() == []


class TestJoinStateExposure:
    def test_symmetric_join_exposes_both_hash_tables(self):
        join = SymmetricHashJoin(Scan(LEFT), Scan(RIGHT), "lk", "rk")
        join.run_to_completion()
        assert len(join.left_state) == len(LEFT)
        assert len(join.right_state) == len(RIGHT)
        assert join.left_state.key == "lk"

    def test_hybrid_hash_exposes_inner_state(self):
        join = HybridHashJoin(Scan(LEFT), Scan(RIGHT), "lk", "rk")
        join.run_to_completion()
        assert len(join.inner_state) == len(RIGHT)


class TestCostAccounting:
    def test_symmetric_join_charges_inserts_and_probes(self):
        join = SymmetricHashJoin(Scan(LEFT), Scan(RIGHT), "lk", "rk")
        join.run_to_completion()
        total_inputs = len(LEFT) + len(RIGHT)
        assert join.metrics.hash_inserts == total_inputs
        assert join.metrics.hash_probes == total_inputs

    def test_hybrid_hash_builds_then_probes(self):
        join = HybridHashJoin(Scan(LEFT), Scan(RIGHT), "lk", "rk")
        join.run_to_completion()
        assert join.metrics.hash_inserts == len(RIGHT)
        assert join.metrics.hash_probes == len(LEFT)


# ---------------------------------------------------------------------------
# Property: both pull equi-join implementations agree with the brute-force
# reference for arbitrary key multisets.
# ---------------------------------------------------------------------------

key_lists = st.lists(st.integers(min_value=0, max_value=8), max_size=40)


@settings(max_examples=50, deadline=None)
@given(left_keys=key_lists, right_keys=key_lists)
def test_property_join_implementations_agree(left_keys, right_keys):
    left = make_left(left_keys)
    right = make_right(right_keys)
    expected = reference_join(left, right, "lk", "rk")

    hybrid = HybridHashJoin(Scan(left), Scan(right), "lk", "rk").run_to_completion()
    symmetric = SymmetricHashJoin(Scan(left), Scan(right), "lk", "rk").run_to_completion()
    assert_same_bag(hybrid, expected)
    assert_same_bag(symmetric, expected)
