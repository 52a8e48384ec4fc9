"""Tests for predicates, join predicates and aggregate terms."""

import pytest

from repro.relational.expressions import (
    Aggregate,
    AttributeRef,
    BinaryPredicate,
    Comparison,
    Conjunction,
    Constant,
    Disjunction,
    ExpressionError,
    JoinPredicate,
    Negation,
    TruePredicate,
    conjunction,
    validate_aggregates,
)
from repro.relational.schema import Schema

SCHEMA = Schema.from_names(["a", "b", "c"])


class TestComparison:
    @pytest.mark.parametrize(
        "op,expected",
        [("=", False), ("!=", True), ("<", True), ("<=", True), (">", False), (">=", False)],
    )
    def test_operators(self, op, expected):
        predicate = Comparison(AttributeRef("a"), op, AttributeRef("b"))
        assert predicate.compile(SCHEMA)((1, 2, 3)) is expected

    def test_against_constant(self):
        predicate = Comparison(AttributeRef("c"), ">=", Constant(3))
        fn = predicate.compile(SCHEMA)
        assert fn((0, 0, 3))
        assert not fn((0, 0, 2))

    def test_unknown_operator(self):
        with pytest.raises(ExpressionError):
            Comparison(AttributeRef("a"), "LIKE", Constant("x"))

    def test_attributes(self):
        predicate = Comparison(AttributeRef("a"), "=", AttributeRef("b"))
        assert predicate.attributes() == {"a", "b"}

    def test_selectivity_defaults(self):
        assert Comparison(AttributeRef("a"), "=", Constant(1)).estimated_selectivity() == 0.1
        assert Comparison(AttributeRef("a"), "<", Constant(1)).estimated_selectivity() == 0.3


class TestBooleanCombinators:
    def test_conjunction(self):
        predicate = Conjunction(
            (
                Comparison(AttributeRef("a"), ">", Constant(0)),
                Comparison(AttributeRef("b"), "<", Constant(10)),
            )
        )
        fn = predicate.compile(SCHEMA)
        assert fn((1, 5, 0))
        assert not fn((0, 5, 0))

    def test_disjunction(self):
        predicate = Disjunction(
            (
                Comparison(AttributeRef("a"), "=", Constant(1)),
                Comparison(AttributeRef("b"), "=", Constant(1)),
            )
        )
        fn = predicate.compile(SCHEMA)
        assert fn((1, 0, 0))
        assert fn((0, 1, 0))
        assert not fn((0, 0, 0))

    def test_negation(self):
        predicate = Negation(Comparison(AttributeRef("a"), "=", Constant(1)))
        fn = predicate.compile(SCHEMA)
        assert not fn((1, 0, 0))
        assert fn((2, 0, 0))

    def test_true_predicate(self):
        assert TruePredicate().compile(SCHEMA)((1, 2, 3))
        assert TruePredicate().estimated_selectivity() == 1.0

    def test_conjunction_helper_simplifies(self):
        only = Comparison(AttributeRef("a"), "=", Constant(1))
        assert conjunction([TruePredicate(), only]) is only
        assert isinstance(conjunction([]), TruePredicate)
        combined = conjunction([only, Comparison(AttributeRef("b"), "=", Constant(2))])
        assert isinstance(combined, Conjunction)

    def test_conjunction_selectivity_multiplies(self):
        pred = Conjunction(
            (
                Comparison(AttributeRef("a"), "=", Constant(1)),
                Comparison(AttributeRef("b"), "=", Constant(2)),
            )
        )
        assert pred.estimated_selectivity() == pytest.approx(0.01)

    def test_binary_predicate(self):
        predicate = BinaryPredicate("a", "b", lambda x, y: x + y > 4, label="sum_gt")
        fn = predicate.compile(SCHEMA)
        assert fn((2, 3, 0))
        assert not fn((1, 1, 0))
        assert predicate.attributes() == {"a", "b"}


class TestJoinPredicate:
    def test_connects(self):
        pred = JoinPredicate("a", "x", "b", "y")
        assert pred.connects(frozenset(["a"]), frozenset(["b"]))
        assert pred.connects(frozenset(["b"]), frozenset(["a"]))
        assert not pred.connects(frozenset(["a"]), frozenset(["c"]))

    def test_relations(self):
        pred = JoinPredicate("a", "x", "b", "y")
        assert pred.relations() == frozenset({"a", "b"})


class TestAggregate:
    def test_sum(self):
        agg = Aggregate("sum", "v", "total")
        state = agg.initial_state()
        for value in (1, 2, 3):
            state = agg.merge_value(state, value)
        assert agg.finalize(state) == 6

    def test_count_ignores_attribute(self):
        agg = Aggregate("count", None, "n")
        state = agg.initial_state()
        for _ in range(4):
            state = agg.merge_value(state, None)
        assert agg.finalize(state) == 4

    def test_min_max(self):
        mn, mx = Aggregate("min", "v", "lo"), Aggregate("max", "v", "hi")
        smin, smax = mn.initial_state(), mx.initial_state()
        for value in (5, 3, 9):
            smin = mn.merge_value(smin, value)
            smax = mx.merge_value(smax, value)
        assert mn.finalize(smin) == 3
        assert mx.finalize(smax) == 9

    def test_avg_decomposes_into_sum_and_count(self):
        agg = Aggregate("avg", "v", "mean")
        state = agg.initial_state()
        for value in (2.0, 4.0, 6.0):
            state = agg.merge_value(state, value)
        assert agg.finalize(state) == pytest.approx(4.0)

    def test_avg_merge_partial(self):
        agg = Aggregate("avg", "v", "mean")
        partial_a = (6.0, 2)  # sum, count
        partial_b = (6.0, 1)
        state = agg.initial_state()
        state = agg.merge_partial(state, partial_a)
        state = agg.merge_partial(state, partial_b)
        assert agg.finalize(state) == pytest.approx(4.0)

    def test_merge_partial_distributes_like_merge_value(self):
        """Pre-aggregating a partition then coalescing equals direct aggregation."""
        values = [4, 8, 15, 16, 23, 42]
        for fn in ("sum", "min", "max", "count"):
            agg = Aggregate(fn, "v" if fn != "count" else None, "out")
            direct = agg.initial_state()
            for value in values:
                direct = agg.merge_value(direct, value)
            left, right = agg.initial_state(), agg.initial_state()
            for value in values[:3]:
                left = agg.merge_value(left, value)
            for value in values[3:]:
                right = agg.merge_value(right, value)
            combined = agg.merge_partial(agg.initial_state(), left)
            combined = agg.merge_partial(combined, right)
            assert agg.finalize(combined) == agg.finalize(direct)

    def test_singleton_partial(self):
        assert Aggregate("count", None, "n").singleton_partial(None) == 1
        assert Aggregate("sum", "v", "s").singleton_partial(5) == 5
        assert Aggregate("avg", "v", "a").singleton_partial(5) == (5, 1)

    def test_unknown_function_rejected(self):
        with pytest.raises(ExpressionError):
            Aggregate("median", "v", "m")

    def test_missing_attribute_rejected(self):
        with pytest.raises(ExpressionError):
            Aggregate("sum", None, "s")

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ExpressionError):
            validate_aggregates(
                [Aggregate("sum", "v", "x"), Aggregate("max", "v", "x")]
            )
