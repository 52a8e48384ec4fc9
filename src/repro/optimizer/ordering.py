"""Ordering knowledge and order-adaptive join-strategy selection.

The paper's title capability — *adapting to source properties* — includes
exploiting discovered arrival order: a source that turns out to be sorted on
its join attribute can be joined by a streaming merge join with a bounded
active window instead of a symmetric hash join with full build-side state.
This module is the single source of truth for that decision:

* :class:`OrderingKnowledge` fuses the catalog's ordering *promises*
  (``TableStatistics.sorted_on``) with what the per-cursor order detectors
  actually observed (``ObservedStatistics.orderings``) — observations
  override promises once enough data has arrived, which is how a lying
  promise gets caught;
* :func:`plan_join_strategies` walks a join tree and assigns the merge
  strategy to every node whose two inputs are (near-)sorted on the node's
  join keys in the same direction, propagating derived output orderings up
  the tree (a merge join's output is ordered on its join key);
* :func:`refresh_strategies` re-costs an already-running strategy assignment
  under *current* knowledge, so the re-optimizer can notice that a merge
  node chosen on a promise is now paying the out-of-order penalty and
  propose a mid-flight switch back to hash (or vice versa).

Both the plan cost model and the pipelined engine consume the resulting
:class:`JoinStrategy` records, so estimated and charged work stay symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.optimizer.plans import JoinTree
from repro.optimizer.statistics import ObservedStatistics
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog

#: an order detector must have seen this many arrivals before its verdict
#: overrides a catalog promise (or establishes order for an unpromised source)
MIN_OBSERVED_FOR_ORDER = 16


@dataclass(frozen=True)
class JoinStrategy:
    """Physical algorithm choice for one join node (keyed by relation set).

    ``direction`` is ``+1`` (ascending) or ``-1`` (descending) for merge
    nodes.  ``left_in_order`` / ``right_in_order`` are the estimated
    fractions of that side's arrivals taking the in-order fast path; the cost
    model charges the remainder at hash rates (the late-tuple fallback), and
    the penalty applies to *leaf* sides only — where disorder is measured.
    """

    algorithm: str = "hash"
    direction: int = 1
    left_key: str | None = None
    right_key: str | None = None
    left_in_order: float = 1.0
    right_in_order: float = 1.0


@dataclass(frozen=True)
class SideOrdering:
    """Known ordering of one attribute of a subtree's output stream."""

    direction: int | None
    in_order_fraction: float = 1.0
    source: str = "promise"  # "promise" | "observed" | "derived"


class OrderingKnowledge:
    """Fused promise + observation ordering knowledge for one query."""

    def __init__(self, entries: dict[tuple[str, str], SideOrdering] | None = None):
        self._entries: dict[tuple[str, str], SideOrdering] = dict(entries or {})

    @classmethod
    def gather(
        cls,
        catalog: Catalog,
        query: SPJAQuery,
        observed: ObservedStatistics | None = None,
        min_observed: int = MIN_OBSERVED_FOR_ORDER,
    ) -> "OrderingKnowledge":
        """Collect ordering knowledge relevant to ``query``.

        Catalog promises seed the entries (direction ascending, fully in
        order); any order observation with at least ``min_observed`` arrivals
        replaces the promise — including with a *verified unordered* entry
        (``direction=None``), which both disqualifies the attribute from
        merge-eligibility and records the measured in-order fraction so a
        still-running merge node can be re-costed honestly.
        """
        entries: dict[tuple[str, str], SideOrdering] = {}
        for relation in query.relations:
            if relation not in catalog:
                continue
            for attr in catalog.statistics(relation).sorted_on:
                entries[(relation, attr)] = SideOrdering(1, 1.0, "promise")
        if observed is not None:
            for (relation, attr), ordering in observed.orderings.items():
                if relation not in query.relations:
                    continue
                if ordering.observed >= min_observed:
                    entries[(relation, attr)] = SideOrdering(
                        ordering.direction, ordering.in_order_fraction, "observed"
                    )
                elif (
                    ordering.promised_direction is not None
                    and (relation, attr) not in entries
                ):
                    entries[(relation, attr)] = SideOrdering(
                        ordering.promised_direction, 1.0, "promise"
                    )
        return cls(entries)

    def side(self, relation: str, attribute: str) -> SideOrdering | None:
        return self._entries.get((relation, attribute))

    def leaf_orderings(self, relation: str) -> dict[str, SideOrdering]:
        """All known attribute orderings of one base relation's stream."""
        return {
            attr: ordering
            for (rel, attr), ordering in self._entries.items()
            if rel == relation
        }

    def __len__(self) -> int:
        return len(self._entries)


def merge_step(
    left_ordered: dict[str, SideOrdering],
    right_ordered: dict[str, SideOrdering],
    keys: tuple[str, str],
    left_is_leaf: bool,
    right_is_leaf: bool,
    min_in_order: float = 0.8,
) -> tuple[JoinStrategy | None, dict[str, SideOrdering]]:
    """Strategy and output orderings of one join node, given its inputs'.

    The node runs a merge join when both inputs are known (near-)sorted on
    its join ``keys`` in the same direction with at least ``min_in_order`` of
    arrivals in order; otherwise it stays a hash join (``None``) and its
    output carries no ordering.
    """
    left_key, right_key = keys
    left_side = left_ordered.get(left_key)
    right_side = right_ordered.get(right_key)
    if (
        left_side is None
        or right_side is None
        or left_side.direction is None
        or left_side.direction != right_side.direction
        or min(left_side.in_order_fraction, right_side.in_order_fraction)
        < min_in_order
    ):
        return None, {}
    strategy = JoinStrategy(
        algorithm="merge",
        direction=left_side.direction,
        left_key=left_key,
        right_key=right_key,
        # The out-of-order penalty is charged where disorder is measured:
        # at the sources.  Internal (child-join) inputs inherit their
        # order from already-accounted leaves.
        left_in_order=left_side.in_order_fraction if left_is_leaf else 1.0,
        right_in_order=right_side.in_order_fraction if right_is_leaf else 1.0,
    )
    derived = SideOrdering(
        left_side.direction,
        min(left_side.in_order_fraction, right_side.in_order_fraction),
        "derived",
    )
    # A merge join emits outputs in join-key order, and both key columns
    # carry the same values, so the output is ordered on either name.
    return strategy, {left_key: derived, right_key: derived}


def plan_join_strategies(
    query: SPJAQuery,
    tree: JoinTree,
    knowledge: OrderingKnowledge,
    min_in_order: float = 0.8,
) -> dict[frozenset, JoinStrategy]:
    """Assign the merge strategy to every order-eligible node of ``tree``
    (:func:`merge_step`, bottom-up).  Nodes not in the returned mapping run
    the default symmetric hash join.
    """
    strategies: dict[frozenset, JoinStrategy] = {}
    _assign_strategies(query, tree, knowledge, min_in_order, strategies)
    return strategies


def _assign_strategies(
    query: SPJAQuery,
    node: JoinTree,
    knowledge: OrderingKnowledge,
    min_in_order: float,
    strategies: dict[frozenset, JoinStrategy],
) -> dict[str, SideOrdering]:
    """The bottom-up pass of :func:`plan_join_strategies`; returns the
    orderings ``node``'s output carries.  Module-level: a closure calling
    itself would hold itself in a reference cycle."""
    if node.is_leaf:
        return knowledge.leaf_orderings(node.relation)
    left_ordered = _assign_strategies(query, node.left, knowledge, min_in_order, strategies)
    right_ordered = _assign_strategies(query, node.right, knowledge, min_in_order, strategies)
    keys = query.join_graph.join_keys(node.left.relations(), node.right.relations())
    if keys is None:
        return {}
    strategy, ordered = merge_step(
        left_ordered,
        right_ordered,
        keys,
        node.left.is_leaf,
        node.right.is_leaf,
        min_in_order,
    )
    if strategy is not None:
        strategies[node.relations()] = strategy
    return ordered


def refresh_strategies(
    query: SPJAQuery,
    tree: JoinTree,
    strategies: dict[frozenset, JoinStrategy],
    knowledge: OrderingKnowledge,
) -> dict[frozenset, JoinStrategy]:
    """Re-estimate the in-order fractions of a *running* strategy assignment.

    The algorithm choices are kept exactly as given (they describe the plan
    that is actually executing) but each merge node's leaf-side in-order
    fractions are refreshed from current knowledge, so the cost model charges
    the running plan what it is *really* paying — the mechanism by which a
    promise-based merge choice over a lying source loses to a hash
    alternative at the next re-optimization poll.
    """
    refreshed: dict[frozenset, JoinStrategy] = {}

    def fraction(side_tree: JoinTree, key: str | None) -> float:
        if key is None or not side_tree.is_leaf:
            return 1.0
        side = knowledge.side(side_tree.relation, key)
        return side.in_order_fraction if side is not None else 1.0

    for node in tree.internal_nodes():
        strategy = strategies.get(node.relations())
        if strategy is None:
            continue
        if strategy.algorithm != "merge":
            refreshed[node.relations()] = strategy
            continue
        refreshed[node.relations()] = replace(
            strategy,
            left_in_order=fraction(node.left, strategy.left_key),
            right_in_order=fraction(node.right, strategy.right_key),
        )
    return refreshed


def algorithms_of(strategies: dict[frozenset, JoinStrategy] | None) -> dict[frozenset, str]:
    """Algorithm-only view of a strategy map (for change detection / reports)."""
    if not strategies:
        return {}
    return {relations: strategy.algorithm for relations, strategy in strategies.items()}
