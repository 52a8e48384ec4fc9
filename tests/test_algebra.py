"""Tests for the SPJA query description and its join graph."""

import dataclasses
import itertools
import pickle

import pytest

from helpers import count_calls
from repro.relational.algebra import (
    AggregateSpec,
    JoinGraph,
    QueryError,
    SPJAQuery,
)
from repro.relational.expressions import (
    Aggregate,
    AttributeRef,
    Comparison,
    Constant,
    JoinPredicate,
    TruePredicate,
)


def two_table_query():
    return SPJAQuery(
        name="q",
        relations=("a", "b"),
        join_predicates=(JoinPredicate("a", "x", "b", "y"),),
        selections={"a": Comparison(AttributeRef("x"), ">", Constant(0))},
    )


class TestAggregateSpec:
    def test_output_attributes(self):
        spec = AggregateSpec(("g",), (Aggregate("sum", "v", "total"),))
        assert spec.output_attributes == ("g", "total")


class TestSPJAQueryValidation:
    def test_valid_query(self):
        query = two_table_query()
        assert query.relations == ("a", "b")

    def test_duplicate_relations_rejected(self):
        with pytest.raises(QueryError):
            SPJAQuery("q", ("a", "a"), ())

    def test_join_predicate_unknown_relation(self):
        with pytest.raises(QueryError):
            SPJAQuery("q", ("a", "b"), (JoinPredicate("a", "x", "c", "y"),))

    def test_selection_unknown_relation(self):
        with pytest.raises(QueryError):
            SPJAQuery(
                "q",
                ("a",),
                (),
                selections={"zzz": TruePredicate()},
            )

    def test_disconnected_join_graph_rejected(self):
        with pytest.raises(QueryError):
            SPJAQuery("q", ("a", "b", "c"), (JoinPredicate("a", "x", "b", "y"),))

    def test_single_relation_query_allowed(self):
        query = SPJAQuery("q", ("a",), ())
        assert query.join_graph.splits(frozenset(query.relations)) == ()


class TestSPJAQueryHelpers:
    def test_selection_for_defaults_to_true(self):
        query = two_table_query()
        assert isinstance(query.selection_for("b"), TruePredicate)
        assert not isinstance(query.selection_for("a"), TruePredicate)

    def test_predicates_between(self):
        query = two_table_query()
        preds = query.predicates_between(frozenset(["a"]), frozenset(["b"]))
        assert len(preds) == 1
        assert query.predicates_between(frozenset(["a"]), frozenset(["a"])) == ()

    def test_describe_mentions_pieces(self):
        query = SPJAQuery(
            name="q",
            relations=("a", "b"),
            join_predicates=(JoinPredicate("a", "x", "b", "y"),),
            aggregation=AggregateSpec(("x",), (Aggregate("sum", "y", "s"),)),
        )
        text = query.describe()
        assert "a" in text and "group by" in text and "sum" in text


def snowflake_query(name="q"):
    """a - b - c - d with a second predicate on a-b and a spur b - e."""
    return SPJAQuery(
        name,
        ("a", "b", "c", "d", "e"),
        (
            JoinPredicate("b", "b1", "a", "a1"),
            JoinPredicate("a", "a2", "b", "b2"),
            JoinPredicate("b", "b3", "c", "c1"),
            JoinPredicate("c", "c2", "d", "d1"),
            JoinPredicate("e", "e1", "b", "b4"),
        ),
    )


def _brute_force_splits(query, relations):
    """Every unordered 2-partition of ``relations`` with a predicate across
    and both halves connected — by definition, not by ``JoinGraph``."""

    def connected(subset):
        reached = {min(subset)}
        while True:
            grown = reached | {
                name
                for name in subset
                if any(query.predicates_between(frozenset(reached), frozenset([name])))
            }
            if grown == reached:
                return reached == set(subset)
            reached = grown

    members = sorted(relations)
    found = set()
    for size in range(1, len(members)):
        for left in itertools.combinations(members, size):
            left, right = frozenset(left), relations - frozenset(left)
            if (
                query.predicates_between(left, right)
                and connected(left)
                and connected(right)
            ):
                found.add(frozenset((left, right)))
    return found


class TestJoinGraph:
    def test_bushy_splits_are_exactly_the_valid_partitions(self):
        query = snowflake_query()
        for size in range(2, 6):
            for subset in itertools.combinations(query.relations, size):
                relations = frozenset(subset)
                splits = query.join_graph.splits(relations)
                assert {frozenset((left, right)) for left, right, *_ in splits} == (
                    _brute_force_splits(query, relations)
                )
                assert len(splits) == len({(left, right) for left, right, *_ in splits})

    def test_left_deep_splits_keep_a_single_relation_on_the_right(self):
        query = snowflake_query()
        everything = frozenset(query.relations)
        splits = query.join_graph.splits(everything, bushy=False)
        # Removing b disconnects the graph; removing c strands d.
        assert [sorted(right) for _left, right, *_ in splits] == [["a"], ["d"], ["e"]]
        assert all(left | right == everything for left, right, *_ in splits)

    def test_split_keys_are_the_first_connecting_predicate_oriented(self):
        graph = snowflake_query().join_graph
        assert graph.join_keys(frozenset("a"), frozenset("b")) == ("a1", "b1")
        assert graph.join_keys(frozenset("bc"), frozenset("a")) == ("b1", "a1")
        assert graph.join_keys(frozenset("a"), frozenset("c")) is None
        for left, right, left_key, right_key in graph.splits(frozenset("abe")):
            assert (left_key, right_key) == graph.join_keys(left, right)

    def test_table_is_built_once_per_relation_set(self, monkeypatch):
        calls = count_calls(monkeypatch, JoinGraph, "connected")
        query = snowflake_query()
        everything = frozenset(query.relations)
        first = query.join_graph.splits(everything)
        built = len(calls)
        assert built > 0
        assert query.join_graph.splits(everything) is first
        assert len(calls) == built

    def test_graph_follows_the_predicates_not_the_name(self):
        """A partition fragment keeps its parent's name; a table keyed on the
        name would hand it the parent's splits."""
        query = snowflake_query("same")
        other = dataclasses.replace(
            query,
            join_predicates=query.join_predicates[:4]
            + (JoinPredicate("e", "e1", "d", "d2"),),
        )
        everything = frozenset(query.relations)
        assert other.name == query.name and other.relations == query.relations
        assert other.join_graph is not query.join_graph
        assert other.join_graph.splits(everything) != query.join_graph.splits(everything)

    def test_graph_is_derived_state_and_stays_out_of_pickles(self):
        query = snowflake_query()
        bare = len(pickle.dumps(query))
        query.join_graph.splits(frozenset(query.relations))
        assert len(pickle.dumps(query)) == bare
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query and "join_graph" not in vars(clone)
        assert clone.join_graph.splits(frozenset("ab")) == query.join_graph.splits(
            frozenset("ab")
        )
