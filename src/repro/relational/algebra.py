"""Logical query algebra and the SPJA query description.

The paper's workload is select-project-join-aggregate (SPJA) queries.  Two
representations are provided:

* :class:`SPJAQuery` — a declarative description (relations, join predicates,
  selections, grouping, aggregates).  This is what users of the library and
  the benchmark harness construct, and what the optimizer consumes.
* :class:`LogicalPlan` trees (:class:`BaseRelation`, :class:`Select`,
  :class:`Project`, :class:`Join`, :class:`GroupBy`) — an explicit operator
  tree, produced by the optimizer and consumed by the physical planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from repro.relational.expressions import (
    Aggregate,
    JoinPredicate,
    Predicate,
    TruePredicate,
    validate_aggregates,
)


class QueryError(ValueError):
    """Raised when an SPJA query description is malformed."""


# ---------------------------------------------------------------------------
# Logical plan nodes
# ---------------------------------------------------------------------------


class LogicalPlan:
    """Base class for logical plan nodes."""

    def children(self) -> tuple["LogicalPlan", ...]:
        raise NotImplementedError

    def relations(self) -> frozenset[str]:
        """Set of base relation names contributing to this subtree."""
        result: frozenset[str] = frozenset()
        for child in self.children():
            result |= child.relations()
        return result

    def walk(self) -> Iterator["LogicalPlan"]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class BaseRelation(LogicalPlan):
    """Leaf node: a scan of a named base relation / data source."""

    name: str

    def children(self) -> tuple[LogicalPlan, ...]:
        return ()

    def relations(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __str__(self) -> str:  # pragma: no cover
        return self.name


@dataclass(frozen=True)
class Select(LogicalPlan):
    """Filter node applying a predicate to its child."""

    child: LogicalPlan
    predicate: Predicate

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def __str__(self) -> str:  # pragma: no cover
        return f"σ[{self.predicate}]({self.child})"


@dataclass(frozen=True)
class Project(LogicalPlan):
    """Projection node restricting the output to named attributes."""

    child: LogicalPlan
    attributes: tuple[str, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def __str__(self) -> str:  # pragma: no cover
        return f"π[{', '.join(self.attributes)}]({self.child})"


@dataclass(frozen=True)
class Join(LogicalPlan):
    """Equi-join of two subtrees on one or more join predicates."""

    left: LogicalPlan
    right: LogicalPlan
    predicates: tuple[JoinPredicate, ...]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:  # pragma: no cover
        preds = " AND ".join(str(p) for p in self.predicates) or "TRUE"
        return f"({self.left} ⋈[{preds}] {self.right})"


@dataclass(frozen=True)
class GroupBy(LogicalPlan):
    """Grouping / aggregation node (the query's final GROUP BY or a pre-aggregation)."""

    child: LogicalPlan
    group_attributes: tuple[str, ...]
    aggregates: tuple[Aggregate, ...]
    partial: bool = False

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def __str__(self) -> str:  # pragma: no cover
        kind = "γ_partial" if self.partial else "γ"
        aggs = ", ".join(str(a) for a in self.aggregates)
        return f"{kind}[{', '.join(self.group_attributes)}; {aggs}]({self.child})"


# ---------------------------------------------------------------------------
# Aggregate specification for a query
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateSpec:
    """Grouping attributes plus aggregate terms of an SPJA query."""

    group_attributes: tuple[str, ...]
    aggregates: tuple[Aggregate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_attributes", tuple(self.group_attributes))
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        validate_aggregates(self.aggregates)

    @property
    def output_attributes(self) -> tuple[str, ...]:
        """Names of the attributes an aggregation produces."""
        return self.group_attributes + tuple(a.alias for a in self.aggregates)

    def referenced_attributes(self) -> set[str]:
        result = set(self.group_attributes)
        for agg in self.aggregates:
            result |= agg.attributes()
        return result


# ---------------------------------------------------------------------------
# Join graph
# ---------------------------------------------------------------------------

#: one way to join a relation set: ``(left set, right set, left key, right key)``
JoinSplit = tuple[frozenset[str], frozenset[str], str, str]


class JoinGraph:
    """The graph a query's join predicates induce over its relations.

    Everything here depends on the predicates alone — never on statistics —
    so the table of valid splits is enumerated once per relation set and
    shared by every optimizer invocation over the query
    (:attr:`SPJAQuery.join_graph`): a corrective run re-optimizes at every
    monitor poll, and only the costs change between polls.
    """

    def __init__(self, join_predicates: tuple[JoinPredicate, ...]) -> None:
        self.join_predicates = join_predicates
        self._splits: dict[tuple[frozenset[str], bool], tuple[JoinSplit, ...]] = {}

    def connected(self, relations: frozenset[str]) -> bool:
        """True when the graph restricted to ``relations`` is connected."""
        if len(relations) <= 1:
            return True
        start = min(relations)
        reached = {start}
        frontier = {start}
        while frontier:
            nxt: set[str] = set()
            for pred in self.join_predicates:
                if not (pred.left_relation in relations and pred.right_relation in relations):
                    continue
                if pred.left_relation in frontier and pred.right_relation not in reached:
                    nxt.add(pred.right_relation)
                if pred.right_relation in frontier and pred.left_relation not in reached:
                    nxt.add(pred.left_relation)
            reached |= nxt
            frontier = nxt
        return len(reached) == len(relations)

    def join_keys(
        self, left: frozenset[str], right: frozenset[str]
    ) -> tuple[str, str] | None:
        """Primary join-key pair between two disjoint relation sets, oriented
        ``(left attribute, right attribute)``; ``None`` when no predicate
        connects them.

        Mirrors ``PipelinedPlan._build_node``: the first connecting predicate
        drives the node's key, the remaining ones become residual filters.
        """
        for pred in self.join_predicates:
            if pred.left_relation in left and pred.right_relation in right:
                return pred.left_attr, pred.right_attr
            if pred.left_relation in right and pred.right_relation in left:
                return pred.right_attr, pred.left_attr
        return None

    def splits(self, relations: frozenset[str], bushy: bool = True) -> tuple[JoinSplit, ...]:
        """Every valid way to join ``relations`` from two halves: both halves
        connected, and a predicate between them (no cross products).

        ``bushy=False`` restricts the right half to a single relation
        (left-deep trees).  The order is deterministic; enumerators break
        cost ties by it.
        """
        table = self._splits.get((relations, bushy))
        if table is None:
            table = self._splits[relations, bushy] = tuple(
                (left, right, *keys)
                for left, right in self._partitions(relations, bushy)
                if (keys := self.join_keys(left, right)) is not None
                and self.connected(left)
                and self.connected(right)
            )
        return table

    @staticmethod
    def _partitions(
        relations: frozenset[str], bushy: bool
    ) -> Iterator[tuple[frozenset[str], frozenset[str]]]:
        members = sorted(relations)
        if not bushy:
            for name in members:
                right = frozenset((name,))
                if relations - right:
                    yield relations - right, right
            return
        # Proper non-empty subsets; fixing the first member on the left side
        # avoids generating every partition twice.
        first, rest = members[0], members[1:]
        for mask in range((1 << len(rest)) - 1):
            left = frozenset(
                [first] + [name for i, name in enumerate(rest) if mask & (1 << i)]
            )
            yield left, relations - left


# ---------------------------------------------------------------------------
# SPJA query description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SPJAQuery:
    """Declarative description of a select-project-join-aggregate query.

    Parameters
    ----------
    name:
        Identifier used in reports and benchmark output (e.g. ``"Q3A"``).
    relations:
        Names of the base relations (data sources) the query spans.
    join_predicates:
        Equi-join predicates connecting the relations; the induced join graph
        must be connected (chain/star/snowflake shapes all supported).
    selections:
        Mapping from relation name to a single-relation predicate pushed to
        that relation's scan.
    aggregation:
        Optional final grouping/aggregation.  ``None`` makes this a pure SPJ
        query.
    """

    name: str
    relations: tuple[str, ...]
    join_predicates: tuple[JoinPredicate, ...]
    selections: dict[str, Predicate] = field(default_factory=dict)
    aggregation: AggregateSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "join_predicates", tuple(self.join_predicates))
        if len(set(self.relations)) != len(self.relations):
            raise QueryError("duplicate relation names in query (self-joins unsupported)")
        known = set(self.relations)
        for pred in self.join_predicates:
            if pred.left_relation not in known or pred.right_relation not in known:
                raise QueryError(
                    f"join predicate {pred} references a relation not in {sorted(known)}"
                )
        for rel in self.selections:
            if rel not in known:
                raise QueryError(f"selection on unknown relation {rel!r}")
        if not self.join_graph.connected(frozenset(self.relations)):
            raise QueryError(f"join graph of query {self.name!r} is not connected")

    # -- structure -------------------------------------------------------------

    @cached_property
    def join_graph(self) -> JoinGraph:
        """The query's join graph and its memoized split table.  Derived
        state: it lives as long as this object and stays out of pickles."""
        return JoinGraph(self.join_predicates)

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state.pop("join_graph", None)
        return state

    def selection_for(self, relation: str) -> Predicate:
        """Predicate pushed down to ``relation`` (TRUE when none)."""
        return self.selections.get(relation, TruePredicate())

    def predicates_between(
        self, left: frozenset[str], right: frozenset[str]
    ) -> tuple[JoinPredicate, ...]:
        """Join predicates connecting two disjoint relation sets."""
        return tuple(p for p in self.join_predicates if p.connects(left, right))

    def join_attributes(self, relation: str) -> tuple[str, ...]:
        """Attributes of ``relation`` that participate in any join predicate."""
        attrs: list[str] = []
        for pred in self.join_predicates:
            if pred.involves(relation):
                attr = pred.attr_for(relation)
                if attr not in attrs:
                    attrs.append(attr)
        return tuple(attrs)

    @property
    def num_joins(self) -> int:
        return max(0, len(self.relations) - 1)

    def describe(self) -> str:
        """Human-readable multi-line description (used by examples)."""
        lines = [f"Query {self.name}: {' ⋈ '.join(self.relations)}"]
        for pred in self.join_predicates:
            lines.append(f"  join: {pred}")
        for rel, pred in self.selections.items():
            lines.append(f"  where {rel}: {pred}")
        if self.aggregation:
            aggs = ", ".join(str(a) for a in self.aggregation.aggregates)
            lines.append(
                f"  group by {', '.join(self.aggregation.group_attributes)} -> {aggs}"
            )
        return "\n".join(lines)


def spj_query(
    name: str,
    relations: Sequence[str],
    join_predicates: Sequence[JoinPredicate],
    selections: dict[str, Predicate] | None = None,
) -> SPJAQuery:
    """Convenience constructor for a pure select-project-join query."""
    return SPJAQuery(
        name=name,
        relations=tuple(relations),
        join_predicates=tuple(join_predicates),
        selections=dict(selections or {}),
        aggregation=None,
    )
