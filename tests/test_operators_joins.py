"""Tests for the symmetric hash join node, checked against a brute-force reference."""

from itertools import zip_longest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same_bag, reference_join
from repro.engine.cost import ExecutionMetrics
from repro.engine.pipelined import PipelinedJoinNode
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


def join(left, right, residual=None, batched=False):
    """Push both inputs through one root node; returns ``(node, output rows)``.

    By default the inputs alternate in single-row batches, ``batched``
    pushes each whole.
    """
    residual_fn = residual.compile(left.schema.concat(right.schema)) if residual else None
    node = PipelinedJoinNode(
        left.schema, right.schema, "lk", "rk", residual_fn, ExecutionMetrics()
    )
    output: list[tuple] = []
    node.sink_batch = output.extend
    if batched:
        node.push_batch(list(left.rows), "left")
        node.push_batch(list(right.rows), "right")
    else:
        for left_row, right_row in zip_longest(left.rows, right.rows):
            if left_row is not None:
                node.push_batch([left_row], "left")
            if right_row is not None:
                node.push_batch([right_row], "right")
    return node, output


class TestEquiJoins:
    def test_symmetric_hash_small(self):
        assert_same_bag(join(LEFT, RIGHT)[1], EXPECTED)

    def test_empty_inputs(self):
        assert join(make_left([]), RIGHT)[1] == []
        assert join(LEFT, make_right([]), batched=True)[1] == []


class TestResidualPredicates:
    def test_residual_filters_matches(self):
        residual = BinaryPredicate("lv", "rv", lambda a, b: a.endswith("0") and b.endswith("0"))
        _, rows = join(LEFT, RIGHT, residual=residual)
        assert all(row[1].endswith("0") and row[3].endswith("0") for row in rows)


class TestJoinStateExposure:
    def test_symmetric_join_exposes_both_hash_tables(self):
        node, _ = join(LEFT, RIGHT)
        assert len(node.left_state) == len(LEFT)
        assert len(node.right_state) == len(RIGHT)
        assert node.left_state.key == "lk"


class TestCostAccounting:
    def test_symmetric_join_charges_inserts_and_probes(self):
        node, _ = join(LEFT, RIGHT)
        total_inputs = len(LEFT) + len(RIGHT)
        assert node.metrics.hash_inserts == total_inputs
        assert node.metrics.hash_probes == total_inputs


# ---------------------------------------------------------------------------
# Property: the join node agrees with the brute-force reference for arbitrary
# key multisets, pushed row by row and as whole batches.
# ---------------------------------------------------------------------------

key_lists = st.lists(st.integers(min_value=0, max_value=8), max_size=40)


@settings(max_examples=50, deadline=None)
@given(left_keys=key_lists, right_keys=key_lists)
def test_property_join_implementations_agree(left_keys, right_keys):
    left = make_left(left_keys)
    right = make_right(right_keys)
    expected = reference_join(left, right, "lk", "rk")

    assert_same_bag(join(left, right)[1], expected)
    assert_same_bag(join(left, right, batched=True)[1], expected)
