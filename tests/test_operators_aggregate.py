"""Tests for aggregation: the hash GROUP BY, pseudogroups, pre-aggregates."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import preaggregate
from repro.core.preaggregation import WindowedPreAggregator, WindowPolicy
from repro.engine.operators.aggregate import GroupAccumulator, aggregate_output_schema
from repro.optimizer.plans import PlanError
from repro.relational.expressions import Aggregate
from repro.relational.schema import Schema

SCHEMA = Schema.from_names(["g", "j", "v"])


def aggregate(rows, group_attributes, aggregates):
    """Blocking hash aggregation of raw ``rows``."""
    accumulator = GroupAccumulator(SCHEMA, group_attributes, aggregates)
    accumulator.accumulate_batch(rows)
    return accumulator


ROWS = [
    ("a", 1, 10),
    ("a", 1, 20),
    ("b", 1, 5),
    ("b", 2, 7),
    ("a", 2, 1),
]


class TestOutputSchema:
    def test_aggregate_output_schema(self):
        schema = aggregate_output_schema(["g"], [Aggregate("sum", "v", "total")], SCHEMA)
        assert schema.names == ("g", "total")


class TestGroupAccumulator:
    def test_accumulate_and_results(self):
        acc = GroupAccumulator(SCHEMA, ["g"], [Aggregate("sum", "v", "total")])
        acc.accumulate_batch(ROWS)
        results = dict((row[0], row[1]) for row in acc.results())
        assert results == {"a": 31, "b": 12}
        assert len(acc.results()) == 2
        assert acc.metrics.aggregate_updates == len(ROWS)

    def test_multiple_aggregates(self):
        acc = GroupAccumulator(
            SCHEMA,
            ["g"],
            [
                Aggregate("sum", "v", "total"),
                Aggregate("count", None, "n"),
                Aggregate("max", "v", "biggest"),
                Aggregate("avg", "v", "mean"),
            ],
        )
        acc.accumulate_batch(ROWS)
        by_group = {row[0]: row[1:] for row in acc.results()}
        assert by_group["a"] == (31, 3, 20, pytest.approx(31 / 3))
        assert by_group["b"] == (12, 2, 7, pytest.approx(6.0))

    def test_partial_input_mode(self):
        # Partial aggregates produced by a pre-aggregation step.
        partial_schema = Schema.from_names(["g", "total"])
        acc = GroupAccumulator(
            partial_schema, ["g"], [Aggregate("sum", "v", "total")], input_is_partial=True
        )
        acc.accumulate_batch([("a", 30), ("a", 1), ("b", 12)])
        assert dict((r[0], r[1]) for r in acc.results()) == {"a": 31, "b": 12}

    def test_empty_input(self):
        acc = GroupAccumulator(SCHEMA, ["g"], [Aggregate("sum", "v", "t")])
        assert acc.results() == []


class TestHashAggregate:
    """Blocking hash GROUP BY: the GroupAccumulator every final aggregation is."""

    def test_blocking_aggregation(self):
        acc = aggregate(ROWS, ["g"], [Aggregate("min", "v", "lo")])
        assert dict(acc.results()) == {"a": 1, "b": 5}
        assert acc.output_schema.names == ("g", "lo")

    def test_group_by_multiple_attributes(self):
        acc = aggregate(ROWS, ["g", "j"], [Aggregate("count", None, "n")])
        results = {row[:2]: row[2] for row in acc.results()}
        assert results[("a", 1)] == 2
        assert results[("b", 2)] == 1


class TestPseudogroup:
    """A window of one tuple is the pseudogroup of Section 3.2."""

    def test_converts_each_tuple_to_singleton_partial(self):
        pseudo = WindowedPreAggregator(
            SCHEMA,
            ["g"],
            [Aggregate("sum", "v", "total"), Aggregate("count", None, "n")],
            policy=WindowPolicy(initial_window=1),
        )
        rows = preaggregate(pseudo, ROWS)
        assert len(rows) == len(ROWS)
        assert rows[0] == ("a", 10, 1)
        assert pseudo.output_schema.names == ("g", "total", "n")

    def test_pseudogroup_then_coalesce_equals_direct(self):
        aggregates = [Aggregate("sum", "v", "total")]
        pseudo = WindowedPreAggregator(
            SCHEMA, ["g"], aggregates, policy=WindowPolicy(initial_window=1)
        )
        final = GroupAccumulator(pseudo.output_schema, ["g"], aggregates, input_is_partial=True)
        final.accumulate_batch(preaggregate(pseudo, ROWS))
        direct = aggregate(ROWS, ["g"], aggregates)
        assert sorted(final.results()) == sorted(direct.results())


class TestTraditionalPreAggregate:
    """Traditional pre-aggregation is one unbounded window, closed by flush."""

    def test_reduces_then_coalesces_correctly(self):
        pre = WindowedPreAggregator(
            SCHEMA, ["g", "j"], [Aggregate("sum", "v", "total")], WindowPolicy.unbounded()
        )
        partials = preaggregate(pre, ROWS)
        assert len(partials) == 4  # (a,1), (b,1), (b,2), (a,2)
        final = GroupAccumulator(
            pre.output_schema, ["g"], [Aggregate("sum", "v", "total")], input_is_partial=True
        )
        final.accumulate_batch(partials)
        assert dict((r[0], r[1]) for r in final.results()) == {"a": 31, "b": 12}

    def test_requires_group_attributes(self):
        with pytest.raises(PlanError):
            WindowedPreAggregator(
                SCHEMA, [], [Aggregate("sum", "v", "t")], WindowPolicy.unbounded()
            )


# ---------------------------------------------------------------------------
# Property: pre-aggregation (partial grouping on a superset of the final
# grouping attributes) followed by coalescing equals direct aggregation —
# the distributivity over union that ADP relies on (Section 2.2).
# ---------------------------------------------------------------------------

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=-100, max_value=100),
    ),
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy)
def test_property_preaggregation_is_exact(rows):
    aggregates = [
        Aggregate("sum", "v", "total"),
        Aggregate("count", None, "n"),
        Aggregate("min", "v", "lo"),
        Aggregate("max", "v", "hi"),
    ]
    direct = aggregate(rows, ["g"], aggregates).results()

    pre = WindowedPreAggregator(SCHEMA, ["g", "j"], aggregates, WindowPolicy.unbounded())
    partials = preaggregate(pre, rows)
    final = GroupAccumulator(pre.output_schema, ["g"], aggregates, input_is_partial=True)
    final.accumulate_batch(partials)

    assert sorted(final.results()) == sorted(direct)


# ---------------------------------------------------------------------------
# Property: results() equals finalizing every aggregate state one by one,
# for every aggregate function — an avg that saw no tuple finalizes to None.
# ---------------------------------------------------------------------------


def partial_values(function):
    if function == "avg":
        # (total, count); a zero count is an average over no tuples
        return st.one_of(
            st.just((0.0, 0)),
            st.tuples(st.integers(-50, 50).map(float), st.integers(1, 5)),
        )
    if function in ("min", "max"):
        return st.one_of(st.none(), st.integers(-50, 50))
    return st.integers(0, 50)


@st.composite
def partial_inputs(draw):
    functions = draw(
        st.lists(
            st.sampled_from(["sum", "count", "min", "max", "avg"]), min_size=1, max_size=5
        )
    )
    row = st.tuples(st.sampled_from("abc"), *map(partial_values, functions))
    return functions, draw(st.lists(row, max_size=40))


@settings(max_examples=80, deadline=None)
@given(case=partial_inputs())
@example(case=(["sum", "avg"], [("a", 3, (0.0, 0)), ("b", 1, (2.0, 1))]))
@example(case=(["count", "min", "max"], [("a", 2, None, 4), ("a", 1, -3, None)]))
def test_property_results_equal_finalizing_each_aggregate(case):
    functions, rows = case
    names = [f"p{index}" for index in range(len(functions))]
    aggregates = [
        Aggregate(function, name, name) for function, name in zip(functions, names)
    ]
    accumulator = GroupAccumulator(
        Schema.from_names(["g", *names]), ["g"], aggregates, input_is_partial=True
    )
    accumulator.accumulate_batch(rows)
    expected = [
        key + tuple(agg.finalize(state) for agg, state in zip(aggregates, states))
        for key, states in accumulator._groups.items()
    ]
    assert accumulator.results() == expected
