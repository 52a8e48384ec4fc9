"""Join-order enumeration and the top-level optimizer.

Tukwila's optimizer is "based on top-down enumeration (recursion with
memoization, equivalent to dynamic programming but more flexible for sharing
subexpressions between optimizer re-invocations)" and performs **bushy-tree
enumeration**, which prior work showed matters for data integration queries
(Section 4.3).  This module reproduces that: :class:`JoinEnumerator` finds
the cheapest (possibly bushy) join tree for a connected relation set, and
:class:`Optimizer` wraps it into a full :class:`PhysicalPlan`, optionally
adding pre-aggregation points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.cost import CostModel
from repro.optimizer.cost_model import CostEstimate, PlanCostModel
from repro.optimizer.ordering import (
    JoinStrategy,
    OrderingKnowledge,
    SideOrdering,
    merge_step,
    plan_join_strategies,
)
from repro.optimizer.plans import JoinTree, PhysicalPlan, PreAggPoint
from repro.optimizer.rewrite import find_preaggregation_points
from repro.optimizer.statistics import ObservedStatistics, SelectivityEstimator
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, DEFAULT_ASSUMED_CARDINALITY


@dataclass
class _MemoEntry:
    """The cheapest plan found for one relation set, carrying what a parent
    candidate needs to be costed on top of it without walking ``tree``."""

    tree: JoinTree
    #: ``raw`` plus the final aggregation over this subtree's output — what
    #: candidates are compared on, equal to ``estimate_tree(...).total_cost``
    cost: float
    cardinality: float
    #: cost before aggregation (what ``PlanCostModel._tree_cost`` returns)
    raw: float
    #: known orderings of the subtree's output stream, by attribute
    orderings: dict[str, SideOrdering]
    #: merge strategies of the subtree's nodes (empty: all hash joins)
    strategies: dict[frozenset[str], JoinStrategy]


class JoinEnumerator:
    """Memoized top-down enumeration of bushy join trees.

    Two things are remembered, with different lifetimes:

    * **per enumerator (one optimizer invocation, one set of observations)**
      — the memo: for every connected relation set reached, the cheapest
      tree with its cost, cardinality, output orderings and merge strategies.
      A candidate ``left ⋈ right`` is costed from its two memo entries plus
      the one new node (``PlanCostModel.join_cost``, ``ordering.merge_step``),
      so an invocation costs O(valid splits), not O(valid splits × subtree
      size).  Costs depend on the observations, so the memo dies with the
      enumerator.
    * **per join graph (the query's lifetime)** — which ``(left, right)``
      splits of a relation set are valid at all, and each split's join keys:
      ``SPJAQuery.join_graph.splits``.  That depends on the predicates only,
      so every re-optimization poll of a query reuses one table.

    The composition uses the same term functions ``PlanCostModel.estimate_tree``
    sums over a whole tree, so every memo entry's cost is bit-identical to
    costing its tree from scratch.  ``estimate_tree`` stays the public way to
    cost a tree nobody enumerated (:meth:`cost_of`: the *running* plan, a
    gating tree, a plan with pre-aggregation).
    """

    def __init__(
        self,
        query: SPJAQuery,
        estimator: SelectivityEstimator,
        cost_model: CostModel | None = None,
        bushy: bool = True,
        ordering: OrderingKnowledge | None = None,
    ) -> None:
        """``ordering`` enables order-adaptive enumeration: every candidate
        tree is costed with the merge strategy on its order-eligible nodes,
        so a tree that lines up sorted inputs can win on cost."""
        self.query = query
        self.estimator = estimator
        self.plan_cost_model = PlanCostModel(cost_model)
        self.bushy = bushy
        self.ordering = ordering
        self._memo: dict[frozenset, _MemoEntry] = {}

    # -- public API -------------------------------------------------------------

    def best_tree(self) -> JoinTree:
        """Cheapest join tree over all of the query's relations."""
        return self.best_entry().tree

    def best_entry(self) -> _MemoEntry:
        """Memo entry (tree, cost, strategies, …) for the full relation set."""
        return self._best(frozenset(self.query.relations))

    def best_tree_for(self, relations) -> JoinTree:
        """Cheapest join tree over a (connected) subset of the relations.

        Raises ``ValueError`` when no connected tree exists for the subset.
        Used by adaptation policies that constrain where one relation sits
        (e.g. the source-rate policy gating a collapsed source at the top).
        """
        return self._best(frozenset(relations)).tree

    def strategies_for(self, tree: JoinTree) -> dict[frozenset, object] | None:
        """Order-adaptive strategy assignment for ``tree`` (None without knowledge)."""
        if self.ordering is None:
            return None
        return plan_join_strategies(self.query, tree, self.ordering)

    def cost_of(
        self, tree: JoinTree, join_strategies: dict[frozenset[str], JoinStrategy] | None = None
    ) -> CostEstimate:
        """Cost of a specific (externally supplied) join tree, from scratch.

        Without an explicit ``join_strategies`` map the enumerator's own
        ordering knowledge (if any) picks the strategies; pass a map to cost
        a concrete running configuration instead.
        """
        if join_strategies is None:
            join_strategies = self.strategies_for(tree)
        return self.plan_cost_model.estimate_tree(
            self.query, tree, self.estimator, join_strategies
        )

    def cost_floor(self) -> float | None:
        """A lower bound on ``best_entry().cost`` that enumerates nothing: any
        tree over n ≥ 2 relations reads every leaf, feeds it into one join (a
        hash insert + probe per tuple, or ≥ two comparisons on a merge side)
        and copies the result once; its other terms are ≥ 0.  Shrunk by 1e-9
        against rounding; ``None`` for one relation or a negative join weight."""
        costs, estimator = self.plan_cost_model, self.estimator
        model = costs.cost_model
        per_side = model.hash_insert + model.hash_probe
        if len(self.query.relations) < 2 or min(
            per_side, model.comparison, model.tuple_copy
        ) < 0:
            return None
        if self.ordering is not None:
            per_side = min(per_side, 2 * model.comparison)
        cardinality = estimator.estimate_cardinality(frozenset(self.query.relations))
        raw = cardinality * model.tuple_copy + sum(
            costs.leaf_cost(estimator, relation)
            + estimator.selected_cardinality(relation) * per_side
            for relation in self.query.relations
        )
        return costs.with_aggregation(self.query, raw, cardinality) * (1 - 1e-9)

    # -- enumeration ------------------------------------------------------------

    def _best(self, relations: frozenset[str]) -> _MemoEntry:
        entry = self._memo.get(relations)
        if entry is None:
            entry = self._memo[relations] = (
                self._leaf_entry(relations)
                if len(relations) == 1
                else self._cheapest_split(relations)
            )
        return entry

    def _leaf_entry(self, relations: frozenset[str]) -> _MemoEntry:
        (relation,) = relations
        costs = self.plan_cost_model
        cardinality = self.estimator.estimate_cardinality(relations)
        raw = costs.leaf_cost(self.estimator, relation)
        return _MemoEntry(
            JoinTree.leaf(relation),
            costs.with_aggregation(self.query, raw, cardinality),
            cardinality,
            raw,
            self.ordering.leaf_orderings(relation) if self.ordering is not None else {},
            {},
        )

    def _cheapest_split(self, relations: frozenset[str]) -> _MemoEntry:
        query, costs = self.query, self.plan_cost_model
        cardinality = self.estimator.estimate_cardinality(relations)
        best = None  # (cost, raw, left entry, right entry, strategy, orderings)
        for left_set, right_set, *keys in query.join_graph.splits(relations, self.bushy):
            left = self._best(left_set)
            right = self._best(right_set)
            strategy, orderings = merge_step(
                left.orderings, right.orderings, keys, len(left_set) == 1, len(right_set) == 1
            )
            raw = left.raw + right.raw + costs.join_cost(
                left.cardinality, right.cardinality, cardinality, strategy
            )
            cost = costs.with_aggregation(query, raw, cardinality)
            if best is None or cost < best[0]:
                best = (cost, raw, left, right, strategy, orderings)
        if best is None:
            raise ValueError(
                f"no connected join tree exists for relations {sorted(relations)} "
                f"of query {query.name}"
            )
        cost, raw, left, right, strategy, orderings = best
        strategies = {**left.strategies, **right.strategies}
        if strategy is not None:
            strategies[relations] = strategy
        return _MemoEntry(
            JoinTree.join(left.tree, right.tree), cost, cardinality, raw, orderings, strategies
        )


class Optimizer:
    """Cost-based optimizer producing complete physical plans."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: CostModel | None = None,
        bushy: bool = True,
        default_cardinality: int = DEFAULT_ASSUMED_CARDINALITY,
    ) -> None:
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()
        self.bushy = bushy
        self.default_cardinality = default_cardinality

    def make_estimator(
        self, query: SPJAQuery, observed: ObservedStatistics | None = None
    ) -> SelectivityEstimator:
        return SelectivityEstimator(
            self.catalog, query, observed, self.default_cardinality
        )

    def optimize(
        self,
        query: SPJAQuery,
        observed: ObservedStatistics | None = None,
        preaggregation: str | None = None,
        ordering: OrderingKnowledge | None = None,
        rate_outlook: dict[str, float] | None = None,
    ) -> PhysicalPlan:
        """Pick the cheapest plan for ``query``.

        ``preaggregation`` selects how pre-aggregation points are inserted:
        ``None`` (no pre-aggregation), ``"window"`` (adjustable-window
        operators at every applicable point — the paper's low-risk default),
        or ``"traditional"`` (blocking pre-aggregates, only where the cost
        model estimates a benefit).  ``ordering`` enables order-adaptive
        enumeration (merge-join strategies on order-eligible nodes).
        ``rate_outlook`` maps known-slow relations to their estimated
        remaining arrival windows (simulated seconds, from recent rate
        telemetry): when the work-optimal tree would expose work behind such
        a source's arrivals, the plan that *gates* joins behind the slowest
        named source is chosen instead (see
        :func:`repro.optimizer.exposure.choose_rate_aware_tree`).
        """
        estimator = self.make_estimator(query, observed)
        enumerator = JoinEnumerator(
            query, estimator, self.cost_model, self.bushy, ordering=ordering
        )
        tree = enumerator.best_tree()
        if rate_outlook:
            from repro.optimizer.exposure import choose_rate_aware_tree

            tree = choose_rate_aware_tree(
                query, enumerator, estimator, tree, rate_outlook, self.cost_model
            )
        estimate = enumerator.cost_of(tree)
        preagg_points: tuple[PreAggPoint, ...] = ()
        if preaggregation is not None and query.aggregation is not None:
            schemas = {name: self.catalog.schema(name) for name in query.relations}
            points = find_preaggregation_points(query, tree, schemas, mode=preaggregation)
            if preaggregation == "traditional":
                points = tuple(
                    p for p in points if self._preagg_beneficial(query, p, estimator)
                )
            preagg_points = points
        return PhysicalPlan(
            query=query,
            join_tree=tree,
            preagg_points=preagg_points,
            estimated_cost=estimate.total_cost,
            estimated_cardinalities=estimate.cardinalities,
        )

    def optimize_tree(
        self,
        query: SPJAQuery,
        observed: ObservedStatistics | None = None,
        ordering: OrderingKnowledge | None = None,
        rate_outlook: dict[str, float] | None = None,
    ) -> JoinTree:
        """Shortcut returning only the chosen join tree."""
        return self.optimize(
            query, observed, ordering=ordering, rate_outlook=rate_outlook
        ).join_tree

    def _preagg_beneficial(
        self, query: SPJAQuery, point: PreAggPoint, estimator: SelectivityEstimator
    ) -> bool:
        """Apply traditional pre-aggregation only when it is estimated to shrink data.

        The estimated number of partial groups is the product of the grouping
        attributes' distinct counts (capped at the input size); conventional
        systems apply the transformation only when that is clearly smaller
        than the input — which is exactly the conservatism the adjustable-
        window operator exists to avoid.
        """
        input_card = estimator.estimate_cardinality(frozenset(point.below))
        group_estimate = 1.0
        found = False
        for attr in point.group_attributes:
            for relation in point.below:
                if attr in estimator.catalog.schema(relation).names:
                    group_estimate *= estimator.distinct_values(relation, attr)
                    found = True
                    break
        if not found:
            return False
        group_estimate = min(group_estimate, input_card)
        return group_estimate < 0.8 * input_card
