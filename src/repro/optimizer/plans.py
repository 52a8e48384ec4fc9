"""Plan representations shared by the optimizer and the executors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.relational.algebra import SPJAQuery


class PlanError(ValueError):
    """Raised when a plan structure is inconsistent with its query."""


@dataclass(frozen=True)
class JoinTree:
    """A (possibly bushy) join tree: either a leaf relation or a join of two subtrees.

    Join trees are deliberately minimal — just the shape of the join order.
    The query's join predicates, selections and aggregation are carried by
    the :class:`PhysicalPlan` / :class:`~repro.relational.algebra.SPJAQuery`
    that accompanies the tree, so the same tree type is reused by the
    optimizer's memo table, the pipelined executor and the stitch-up planner.
    """

    relation: Optional[str] = None
    left: Optional["JoinTree"] = None
    right: Optional["JoinTree"] = None

    def __post_init__(self) -> None:
        if self.relation is not None and (self.left is not None or self.right is not None):
            raise PlanError("a JoinTree node is either a leaf or an internal join, not both")
        if self.relation is None and (self.left is None or self.right is None):
            raise PlanError("an internal JoinTree node requires both children")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def leaf(cls, relation: str) -> "JoinTree":
        return cls(relation=relation)

    @classmethod
    def join(cls, left: "JoinTree", right: "JoinTree") -> "JoinTree":
        return cls(relation=None, left=left, right=right)

    @classmethod
    def left_deep(cls, relations: Sequence[str]) -> "JoinTree":
        """Build a left-deep tree joining ``relations`` in the given order."""
        if not relations:
            raise PlanError("cannot build a join tree over zero relations")
        tree = cls.leaf(relations[0])
        for name in relations[1:]:
            tree = cls.join(tree, cls.leaf(name))
        return tree

    # -- structure -------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.relation is not None

    def relations(self) -> frozenset[str]:
        if self.is_leaf:
            return frozenset((self.relation,))
        return self.left.relations() | self.right.relations()

    def leaf_order(self) -> tuple[str, ...]:
        """Leaf relation names in left-to-right order."""
        if self.is_leaf:
            return (self.relation,)
        return self.left.leaf_order() + self.right.leaf_order()

    def subtrees(self) -> Iterator["JoinTree"]:
        """Post-order traversal of all subtrees (leaves first, root last)."""
        if not self.is_leaf:
            yield from self.left.subtrees()
            yield from self.right.subtrees()
        yield self

    def internal_nodes(self) -> Iterator["JoinTree"]:
        for node in self.subtrees():
            if not node.is_leaf:
                yield node

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(self.left.depth(), self.right.depth())

    def __str__(self) -> str:
        if self.is_leaf:
            return self.relation
        return f"({self.left} ⋈ {self.right})"


@dataclass(frozen=True)
class PreAggPoint:
    """A point in the plan where pre-aggregation is inserted.

    ``below`` identifies the subtree (by its relation set) whose output is
    pre-aggregated before being fed into the join above it.  ``mode`` selects
    the window: ``"window"`` for the adjustable-window pre-aggregation of
    Section 6, ``"traditional"`` for a blocking pre-aggregate (one unbounded
    window).  Both run as a stage of the pipelined engine.
    """

    below: frozenset[str]
    mode: str = "window"
    group_attributes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("window", "traditional"):
            raise PlanError(f"unknown pre-aggregation mode {self.mode!r}")
        object.__setattr__(self, "below", frozenset(self.below))
        object.__setattr__(self, "group_attributes", tuple(self.group_attributes))


@dataclass
class PhysicalPlan:
    """A complete executable plan for an SPJA query.

    Combines the query description, the join order, optional pre-aggregation
    points and the optimizer's estimates.  ``estimated_cardinalities`` maps a
    relation set (subexpression) to its estimated output cardinality; the
    re-optimizer compares those against the observed counters.
    """

    query: SPJAQuery
    join_tree: JoinTree
    preagg_points: tuple[PreAggPoint, ...] = ()
    estimated_cost: float = 0.0
    estimated_cardinalities: dict[frozenset, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        tree_relations = self.join_tree.relations()
        query_relations = frozenset(self.query.relations)
        if tree_relations != query_relations:
            raise PlanError(
                f"join tree covers {sorted(tree_relations)} but query "
                f"{self.query.name!r} spans {sorted(query_relations)}"
            )
        self.preagg_points = tuple(self.preagg_points)
