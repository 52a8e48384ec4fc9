"""Plan cost model.

Estimates the work-unit cost of executing an SPJA query with a given join
tree, using the same weights the execution engine charges at runtime
(:class:`~repro.engine.cost.CostModel`).  That symmetry is deliberate: it
lets the re-optimizer compare its *estimates* for candidate plans against the
*observed* work of the currently running plan on an equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cost import CostModel
from repro.optimizer.ordering import JoinStrategy
from repro.optimizer.plans import JoinTree
from repro.optimizer.statistics import SelectivityEstimator
from repro.relational.algebra import SPJAQuery


@dataclass
class CostEstimate:
    """Cost and cardinality estimates for one candidate plan."""

    total_cost: float
    output_cardinality: float
    cardinalities: dict[frozenset, float] = field(default_factory=dict)


class PlanCostModel:
    """Estimates plan costs for pipelined-hash-join execution."""

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost_model = cost_model or CostModel()

    # -- join trees ---------------------------------------------------------------

    def estimate_tree(
        self,
        query: SPJAQuery,
        tree: JoinTree,
        estimator: SelectivityEstimator,
        join_strategies: dict[frozenset[str], JoinStrategy] | None = None,
    ) -> CostEstimate:
        """Cost of executing ``tree``, plus final aggregation.

        Nodes default to symmetric hash joins; ``join_strategies`` (relation
        set → :class:`~repro.optimizer.ordering.JoinStrategy`) marks nodes
        that run the order-adaptive streaming merge join instead, whose
        in-order tuples cost two comparisons rather than a hash insert +
        probe — the same asymmetry the engine charges at runtime.
        """
        cardinalities: dict[frozenset, float] = {}
        cost, cardinality = self._tree_cost(
            query, tree, estimator, cardinalities, join_strategies
        )
        return CostEstimate(
            self.with_aggregation(query, cost, cardinality), cardinality, cardinalities
        )

    # The three terms below are the whole cost formula.  ``_tree_cost`` sums
    # them over a given tree; the join enumerator composes the same calls from
    # its memo, which is what keeps the two bit-identical.

    def with_aggregation(self, query: SPJAQuery, cost: float, cardinality: float) -> float:
        """``cost`` of a (sub)tree plus the final aggregation over its output."""
        if query.aggregation is not None:
            cost += cardinality * self.cost_model.aggregate_update * max(
                len(query.aggregation.aggregates), 1
            )
        return cost

    def leaf_cost(self, estimator: SelectivityEstimator, relation: str) -> float:
        """Reading one source and evaluating its selection."""
        base = estimator.base_cardinality(relation)
        return base * (self.cost_model.tuple_read + self.cost_model.predicate_eval)

    def join_cost(
        self,
        left_card: float,
        right_card: float,
        cardinality: float,
        strategy: JoinStrategy | None = None,
    ) -> float:
        """One join node's own work, given its input and output cardinalities."""
        model = self.cost_model
        if strategy is not None and strategy.algorithm == "merge":
            return (
                self._merge_side_cost(left_card, strategy.left_in_order)
                + self._merge_side_cost(right_card, strategy.right_in_order)
                + cardinality * model.tuple_copy
            )
        # Symmetric hash join: every input tuple is inserted into its own
        # hash table and probes the other side's table; every output tuple
        # is copied.
        return (
            (left_card + right_card) * (model.hash_insert + model.hash_probe)
            + cardinality * model.tuple_copy
        )

    def _merge_side_cost(self, cardinality: float, in_order_fraction: float) -> float:
        """Per-input cost of one merge-join side.

        In-order arrivals pay an ordered insert + ordered probe (two
        comparisons); the out-of-order remainder detours through the archived
        partition at hash rates — mirroring the runtime charges of
        :class:`~repro.engine.pipelined_merge.PipelinedMergeJoinNode`.
        """
        model = self.cost_model
        per_tuple = 2 * model.comparison
        late = min(max(1.0 - in_order_fraction, 0.0), 1.0)
        per_tuple += late * (model.hash_insert + model.hash_probe)
        return cardinality * per_tuple

    def _tree_cost(
        self,
        query: SPJAQuery,
        tree: JoinTree,
        estimator: SelectivityEstimator,
        cardinalities: dict[frozenset, float],
        join_strategies: dict[frozenset[str], JoinStrategy] | None = None,
    ) -> tuple[float, float]:
        relations = tree.relations()
        if tree.is_leaf:
            cardinality = estimator.estimate_cardinality(relations)
            cardinalities[relations] = cardinality
            return self.leaf_cost(estimator, tree.relation), cardinality

        left_cost, left_card = self._tree_cost(
            query, tree.left, estimator, cardinalities, join_strategies
        )
        right_cost, right_card = self._tree_cost(
            query, tree.right, estimator, cardinalities, join_strategies
        )
        cardinality = estimator.estimate_cardinality(relations)
        cardinalities[relations] = cardinality
        strategy = join_strategies.get(relations) if join_strategies else None
        join_cost = self.join_cost(left_card, right_card, cardinality, strategy)
        return left_cost + right_cost + join_cost, cardinality
