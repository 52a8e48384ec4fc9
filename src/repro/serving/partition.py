"""Partition-parallel execution of one heavy query across workers.

Classic hash partitioning on an equi-join edge: pick one join predicate of
the query, split **both** of its relations into ``k`` fragments by a stable
hash of the join-key value, broadcast every other relation whole, and run
the unmodified query once per fragment.  Because the chosen predicate forces
matching rows to carry equal keys, every joined result row materializes in
exactly the fragment its key hashes to — the fragment result multisets are a
partition of the solo result multiset, so the root merge is pure data
plumbing:

* **SPJ queries**: concatenate fragment rows in partition order (columns
  permuted by name onto fragment 0's layout — different fragments may settle
  on different join trees and therefore different column orders);
* **aggregation queries**: fragment queries are rewritten to emit partial
  aggregates (``avg`` decomposes into sum/count, the paper's Section 2.2
  pre-aggregation), and the root folds partials per group key with
  :meth:`~repro.relational.expressions.Aggregate.merge_partial` semantics
  before finalizing — exact for the integer-valued differential workloads,
  and bit-identical to solo because the same operands reach the same
  finalization arithmetic.

The stable hash is ``crc32(repr(value))`` — never the builtin ``hash``,
whose string seed varies per process and would make fragment composition
irreproducible across runs and across spawn boundaries.  It requires join
keys that compare equal to have equal ``repr`` (true for the homogeneous
int/str key columns of every workload here).

Partitioning requires materialized inputs (the fragments *are* new
:class:`~repro.relational.relation.Relation` objects), so only sources that
expose local rows can be partitioned; remote sources stay broadcast.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from operator import add
from zlib import crc32

from repro.relational.algebra import AggregateSpec, SPJAQuery
from repro.relational.expressions import Aggregate, JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serving.specs import SessionResult

#: suffixes of the partial-aggregate columns an ``avg`` rewrite emits
_AVG_SUM_SUFFIX = "__psum"
_AVG_COUNT_SUFFIX = "__pcnt"


def stable_partition_index(value: object, partitions: int) -> int:
    """Deterministic bucket of one join-key value, identical in every
    process regardless of ``PYTHONHASHSEED``."""
    return crc32(repr(value).encode("utf-8")) % partitions


def choose_partition_edge(
    query: SPJAQuery, relations: dict[str, Relation]
) -> JoinPredicate:
    """The equi-join edge worth splitting: the one with the most input rows
    behind it (ties broken by predicate text, so the choice is stable)."""
    if not query.join_predicates:
        raise ValueError(
            f"query {query.name!r} has no join predicates to partition on"
        )
    candidates = [
        predicate
        for predicate in query.join_predicates
        if predicate.left_relation in relations
        and predicate.right_relation in relations
    ]
    if not candidates:
        raise ValueError(
            f"query {query.name!r} has no join edge between materialized "
            "relations; partition-parallel execution needs local inputs"
        )
    return max(
        candidates,
        key=lambda predicate: (
            len(relations[predicate.left_relation].rows)
            + len(relations[predicate.right_relation].rows),
            str(predicate),
        ),
    )


def partition_relation(
    relation: Relation, attribute: str, partitions: int
) -> list[Relation]:
    """Split one relation into ``partitions`` fragments by key hash."""
    return _split(relation, attribute, partitions, {})


def _split(
    relation: Relation, attribute: str, partitions: int, memo: dict[object, int]
) -> list[Relation]:
    """:func:`partition_relation`, hashing each distinct key once: ``memo``
    (key → bucket) may serve every relation over one key domain, because
    keys that compare equal have equal ``repr`` (see above)."""
    position = relation.schema.position(attribute)
    buckets: list[list[tuple]] = [[] for _ in range(partitions)]
    for row in relation.rows:
        key = row[position]
        index = memo.get(key)
        if index is None:
            index = memo[key] = stable_partition_index(key, partitions)
        buckets[index].append(row)
    return [Relation(relation.name, relation.schema, rows) for rows in buckets]


def fragment_query(query: SPJAQuery) -> SPJAQuery:
    """The query each fragment runs.

    Identical to the original except that ``avg`` aggregates are decomposed
    into partial sum/count columns (every other aggregate function is its
    own partial: min/max/sum fold by themselves, count folds by summation).
    """
    aggregation = query.aggregation
    if aggregation is None or not any(
        aggregate.function == "avg" for aggregate in aggregation.aggregates
    ):
        return query
    partial_aggregates: list[Aggregate] = []
    for aggregate in aggregation.aggregates:
        if aggregate.function == "avg":
            partial_aggregates.append(
                Aggregate("sum", aggregate.attribute, aggregate.alias + _AVG_SUM_SUFFIX)
            )
            partial_aggregates.append(
                Aggregate(
                    "count", aggregate.attribute, aggregate.alias + _AVG_COUNT_SUFFIX
                )
            )
        else:
            partial_aggregates.append(aggregate)
    return replace(
        query,
        aggregation=AggregateSpec(
            aggregation.group_attributes, tuple(partial_aggregates)
        ),
    )


@dataclass(frozen=True)
class PartitionPlan:
    """One partitioned submission: the edge, the fragments, the rewrite."""

    label: str
    query: SPJAQuery
    fragment: SPJAQuery
    partitions: int
    edge: JoinPredicate
    #: per-partition source overrides (the two edge relations, split)
    overrides: tuple[dict[str, Relation], ...]


def build_partition_plan(
    label: str,
    query: SPJAQuery,
    relations: dict[str, Relation],
    partitions: int,
) -> PartitionPlan:
    """Plan a ``partitions``-way split of ``query`` over local ``relations``."""
    if partitions < 2:
        raise ValueError("partitions must be at least 2")
    edge = choose_partition_edge(query, relations)
    # Both sides join on one key domain: hash each distinct key once.
    memo: dict[object, int] = {}
    left_fragments = _split(
        relations[edge.left_relation], edge.left_attr, partitions, memo
    )
    right_fragments = _split(
        relations[edge.right_relation], edge.right_attr, partitions, memo
    )
    overrides = tuple(
        {
            edge.left_relation: left_fragments[index],
            edge.right_relation: right_fragments[index],
        }
        for index in range(partitions)
    )
    return PartitionPlan(
        label=label,
        query=query,
        fragment=fragment_query(query),
        partitions=partitions,
        edge=edge,
        overrides=overrides,
    )


def _permuted_rows(
    rows: list[tuple], schema: Schema, canonical: Schema
) -> list[tuple]:
    if tuple(schema.names) == tuple(canonical.names):
        return list(rows)
    positions = [tuple(schema.names).index(name) for name in canonical.names]
    return [tuple(row[p] for p in positions) for row in rows]


def merge_partition_results(
    plan: PartitionPlan, fragments: list[SessionResult]
) -> tuple[list[tuple], Schema]:
    """Deterministic root merge of the fragment results.

    ``fragments`` must hold one result per partition; they are folded in
    partition order, so the merged output is a pure function of the plan and
    the fragment payloads.
    """
    ordered = sorted(fragments, key=lambda fragment: fragment.partition_index)
    if len(ordered) != plan.partitions or [
        fragment.partition_index for fragment in ordered
    ] != list(range(plan.partitions)):
        raise ValueError(
            f"partitioned query {plan.label!r} expected fragments "
            f"0..{plan.partitions - 1}, got "
            f"{[fragment.partition_index for fragment in ordered]}"
        )
    aggregation = plan.query.aggregation
    if aggregation is None:
        canonical = ordered[0].report.schema
        merged: list[tuple] = []
        for fragment in ordered:
            merged.extend(
                _permuted_rows(
                    fragment.report.rows, fragment.report.schema, canonical
                )
            )
        return merged, canonical

    # Aggregation: fold fragment partials per group key, then finalize.
    width = len(aggregation.group_attributes)
    partial_aggregation = plan.fragment.aggregation
    assert partial_aggregation is not None
    partial_layout = Schema.from_names(partial_aggregation.output_attributes)
    merges = [
        _PARTIAL_MERGES[aggregate.function]
        for aggregate in partial_aggregation.aggregates
    ]
    states: dict[tuple, list[object]] = {}
    for fragment in ordered:
        for row in _permuted_rows(
            fragment.report.rows, fragment.report.schema, partial_layout
        ):
            key = row[:width]
            state = states.get(key)
            if state is None:
                states[key] = list(row[width:])
                continue
            partials = row[width:]
            for position, merge in enumerate(merges):
                state[position] = merge(state[position], partials[position])
    if all(aggregate.function != "avg" for aggregate in aggregation.aggregates):
        # No ``avg`` was rewritten: every merged partial is its final value.
        merged_rows = [key + tuple(state) for key, state in states.items()]
    else:
        merged_rows = [
            key + _finalize_group(plan, state) for key, state in states.items()
        ]
    return merged_rows, Schema.from_names(aggregation.output_attributes)


def _merge_min(state: object, value: object) -> object:
    if value is None:
        return state
    return value if state is None or value < state else state  # type: ignore[operator]


def _merge_max(state: object, value: object) -> object:
    if value is None:
        return state
    return value if state is None or value > state else state  # type: ignore[operator]


#: how two partials of one column fold, by the fragment aggregate's function
#: (:func:`fragment_query` leaves no other function in a fragment)
_PARTIAL_MERGES: dict[str, Callable[[object, object], object]] = {
    "sum": add,
    "count": add,
    "min": _merge_min,
    "max": _merge_max,
}


def _finalize_group(plan: PartitionPlan, partials: list[object]) -> tuple:
    """Turn one group's merged fragment partials into final output values.

    Walks the *original* aggregate list; ``avg`` consumes its two rewritten
    partial columns and divides exactly as
    :meth:`~repro.relational.expressions.Aggregate.finalize` does.
    """
    aggregation = plan.query.aggregation
    assert aggregation is not None
    finals: list[object] = []
    position = 0
    for aggregate in aggregation.aggregates:
        if aggregate.function == "avg":
            total, count = partials[position], partials[position + 1]
            position += 2
            finals.append(total / count if count else None)  # type: ignore[operator]
        else:
            finals.append(partials[position])
            position += 1
    return tuple(finals)
