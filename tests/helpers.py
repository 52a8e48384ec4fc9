"""Shared test helpers: brute-force reference implementations.

The engine's operators and the adaptive executors are checked against these
deliberately naive implementations — nested-loop joins, dictionary-based
aggregation — which are easy to convince yourself are correct.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.relational.algebra import SPJAQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def feed(statistic, values) -> None:
    """Observe ``values`` one ``add`` at a time, as the engine does."""
    for value in values:
        statistic.add(value)


def displaced_fraction(original: Relation, perturbed: Relation) -> float:
    """Fraction of rows whose position differs between two same-size relations."""
    assert len(original) == len(perturbed)
    moved = sum(1 for a, b in zip(original.rows, perturbed.rows) if a != b)
    return moved / len(original)


def is_sorted_on(relation: Relation, attribute: str) -> bool:
    """True when ``relation``'s rows are non-decreasing on ``attribute``."""
    values = relation.column(attribute)
    return values == sorted(values)


def node_outputs(plan) -> dict[frozenset, int]:
    """Output count of every join node of a plan, keyed by its relations."""
    return {node.relations: node.output_count for node in plan.nodes}


def consumed_counts(plan) -> dict[str, int]:
    """Tuples consumed from each of a plan's source cursors (pre-selection)."""
    return {name: plan.cursors[name].consumed for name in plan.leaves}


def reference_join(
    left: Relation, right: Relation, left_key: str, right_key: str
) -> list[tuple]:
    """Brute-force equi-join returning concatenated tuples (left values first)."""
    lpos = left.schema.position(left_key)
    rpos = right.schema.position(right_key)
    return [
        lrow + rrow
        for lrow in left.rows
        for rrow in right.rows
        if lrow[lpos] == rrow[rpos]
    ]


def reference_spja(query: SPJAQuery, sources: dict[str, Relation]) -> list[tuple]:
    """Brute-force evaluation of an SPJA query (selections, joins, group-by)."""
    # Apply selections and collect per-relation rows with their schemas.
    working: list[tuple[Schema, list[tuple]]] = []
    for name in query.relations:
        relation = sources[name]
        predicate = query.selection_for(name).compile(relation.schema)
        rows = [row for row in relation.rows if predicate(row)]
        working.append((relation.schema, rows))

    # Fold relations together with nested loops, applying every join predicate
    # whose relations are both present.
    schema = working[0][0]
    rows = working[0][1]
    joined_names = {query.relations[0]}
    remaining = list(zip(query.relations[1:], working[1:]))
    while remaining:
        for index, (name, (rel_schema, rel_rows)) in enumerate(remaining):
            predicates = [
                p
                for p in query.join_predicates
                if name in p.relations()
                and (p.left_relation in joined_names or p.right_relation in joined_names)
            ]
            if not predicates:
                continue
            combined_schema = schema.concat(rel_schema)
            checks = []
            for pred in predicates:
                if pred.left_relation == name:
                    own_attr, other_attr = pred.left_attr, pred.right_attr
                else:
                    own_attr, other_attr = pred.right_attr, pred.left_attr
                checks.append(
                    (combined_schema.position(other_attr), combined_schema.position(own_attr))
                )
            new_rows = []
            for lrow in rows:
                for rrow in rel_rows:
                    candidate = lrow + rrow
                    if all(candidate[a] == candidate[b] for a, b in checks):
                        new_rows.append(candidate)
            schema = combined_schema
            rows = new_rows
            joined_names.add(name)
            remaining.pop(index)
            break
        else:
            raise AssertionError("query join graph is not connected")

    if query.aggregation is None:
        return rows

    # Group-by / aggregation.
    agg = query.aggregation
    group_positions = schema.positions(agg.group_attributes)
    groups: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row[p] for p in group_positions)
        states = groups.setdefault(key, [a.initial_state() for a in agg.aggregates])
        for i, term in enumerate(agg.aggregates):
            value = row[schema.position(term.attribute)] if term.attribute else None
            states[i] = term.merge_value(states[i], value)
    return [
        key + tuple(term.finalize(state) for term, state in zip(agg.aggregates, states))
        for key, states in groups.items()
    ]


def rows_as_multiset(rows: Sequence[tuple]) -> Counter:
    """Bag-compare helper (order-insensitive, duplicate-sensitive)."""
    return Counter(rows)


def assert_same_bag(actual: Sequence[tuple], expected: Sequence[tuple]) -> None:
    assert rows_as_multiset(actual) == rows_as_multiset(expected)


def assert_same_aggregates(
    actual: Sequence[tuple], expected: Sequence[tuple], rel_tol: float = 1e-9
) -> None:
    """Compare grouped results allowing floating-point summation-order drift."""
    def keyed(rows):
        return {row[:-1]: row[-1] for row in rows}

    actual_map, expected_map = keyed(actual), keyed(expected)
    assert set(actual_map) == set(expected_map)
    for key, expected_value in expected_map.items():
        actual_value = actual_map[key]
        if isinstance(expected_value, float):
            assert abs(actual_value - expected_value) <= rel_tol * max(
                1.0, abs(expected_value)
            ), (key, actual_value, expected_value)
        else:
            assert actual_value == expected_value, (key, actual_value, expected_value)


def preaggregate(pre, rows: Sequence[tuple]) -> list[tuple]:
    """Feed ``rows`` through a ``WindowedPreAggregator``, then close its last
    window; returns every partial aggregate emitted."""
    partials = [partial for row in rows for partial in pre.feed(row)]
    return partials + pre.flush()


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap method ``owner.name`` so every call appends its arguments (after
    ``self``) to the returned list, and still runs."""
    calls: list = []
    original = getattr(owner, name)

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(owner, name, counting)
    return calls
