"""Runtime re-optimization.

The corrective query processor periodically asks the re-optimizer whether the
currently running plan should be abandoned for a better one (Section 4.1).
The re-optimizer re-estimates costs using the selectivities and source
counters the monitor has collected, compares the estimated cost of finishing
the query with the current join tree against the best alternative tree, and
recommends a switch only if the alternative is better by a configurable
margin (switching has a cost: the eventual stitch-up work).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cost import CostModel
from repro.optimizer.enumerator import JoinEnumerator
from repro.optimizer.ordering import (
    JoinStrategy,
    OrderingKnowledge,
    algorithms_of,
    refresh_strategies,
)
from repro.optimizer.plans import JoinTree
from repro.optimizer.statistics import SelectivityEstimator

RunningPrice = tuple[JoinEnumerator, dict[frozenset[str], JoinStrategy], float, float]


@dataclass
class ReOptimizationDecision:
    """Outcome of one re-optimization poll."""

    switch: bool
    current_tree: JoinTree
    recommended_tree: JoinTree
    current_cost: float
    recommended_cost: float
    remaining_fraction: float
    #: order-adaptive physical strategies (relation set → JoinStrategy) of
    #: the running plan and of the recommendation; empty when order
    #: adaptivity is off
    current_strategies: dict[frozenset[str], JoinStrategy] = field(default_factory=dict)
    recommended_strategies: dict[frozenset[str], JoinStrategy] = field(default_factory=dict)
    #: whether the recommended tree is structurally identical to the running
    #: one (a switch with ``same_tree`` changes only the physical strategies)
    same_tree: bool = False

    @property
    def improvement(self) -> float:
        """Relative cost reduction the recommended tree promises (0 when none)."""
        if self.current_cost <= 0:
            return 0.0
        return max(0.0, 1.0 - self.recommended_cost / self.current_cost)

    @property
    def strategies_changed(self) -> bool:
        """True when only/also the physical join strategies would change."""
        return algorithms_of(self.current_strategies) != algorithms_of(
            self.recommended_strategies
        )


class ReOptimizer:
    """Cost-based plan re-evaluation fed by runtime observations.

    Each poll hands in the poll's :class:`SelectivityEstimator` (the catalog,
    the query and the observed statistics) and, when order adaptivity is on,
    its :class:`OrderingKnowledge`.  With ordering knowledge every evaluation
    folds in runtime order observations: alternatives are costed with merge
    joins on their order-eligible nodes, and a switch can be recommended even
    for the *same* join tree when only the physical strategies should change
    (the mid-flight hash→merge switch — or merge→hash once a promised
    ordering is exposed as a lie).

    Switching after a fraction of the inputs has been processed means the
    new plan's output must be stitched up against the partitions the current
    plan has built (Section 4.2), so the alternative is charged
    ``STITCHUP_COST_WEIGHT * completed_fraction`` of its full cost on top of
    its remaining cost.
    """

    #: the sunk-work credit of Section 4.2 (``0.0`` would be the memoryless
    #: comparison in which remaining progress cancels out of the decision)
    STITCHUP_COST_WEIGHT = 1.0

    def __init__(
        self, cost_model: CostModel | None = None, switch_threshold: float = 0.8
    ) -> None:
        """``switch_threshold``: recommend a switch only when the alternative's
        estimated remaining cost is below ``threshold * current remaining cost``."""
        self.cost_model = cost_model or CostModel()
        self.switch_threshold = switch_threshold
        self.invocations = 0

    # -- helpers ----------------------------------------------------------------

    @staticmethod
    def _remaining_fraction(estimator: SelectivityEstimator) -> float:
        """Fraction of the source data still to be read, tuple-weighted.

        Per the consistency heuristic of Section 4.2, the cost of the rest of
        the query is extrapolated assuming performance stays proportional to
        the unread fraction of the inputs.  The fraction is weighted by each
        source's (estimated) cardinality: an unweighted per-relation average
        lets tiny dimension tables that exhaust in the first chunk dominate,
        reporting a six-relation query as "mostly done" while the fact table
        is barely touched.
        """
        total_tuples = 0.0
        remaining_tuples = 0.0
        for relation in estimator.query.relations:
            obs = estimator.observed.source(relation)
            total = max(estimator.base_cardinality(relation), 1.0)
            read = obs.tuples_read if obs is not None else 0
            total_tuples += total
            remaining_tuples += max(0.0, total - read)
        if total_tuples <= 0:
            return 1.0
        return remaining_tuples / total_tuples

    def _price_running(
        self,
        current_tree: JoinTree,
        estimator: SelectivityEstimator,
        ordering: OrderingKnowledge | None,
        current_strategies: dict[frozenset[str], JoinStrategy] | None,
    ) -> RunningPrice:
        """Enumerator, running strategies, cost to finish, remaining fraction."""
        query = estimator.query
        enumerator = JoinEnumerator(query, estimator, self.cost_model, ordering=ordering)
        if ordering is not None:
            running_strategies = refresh_strategies(
                query, current_tree, current_strategies or {}, ordering
            )
            current_estimate = enumerator.cost_of(
                current_tree, join_strategies=running_strategies
            )
        else:
            running_strategies = dict(current_strategies or {})
            current_estimate = enumerator.cost_of(
                current_tree, join_strategies=running_strategies or None
            )
        remaining = self._remaining_fraction(estimator)
        current_remaining_cost = current_estimate.total_cost * remaining
        return enumerator, running_strategies, current_remaining_cost, remaining

    # -- main entry point --------------------------------------------------------

    def poll(
        self,
        current_tree: JoinTree,
        estimator: SelectivityEstimator,
        ordering: OrderingKnowledge | None = None,
        current_strategies: dict[frozenset[str], JoinStrategy] | None = None,
    ) -> ReOptimizationDecision | None:
        """One monitor poll: :meth:`evaluate`, or ``None`` (still counted as an
        invocation) where :meth:`JoinEnumerator.cost_floor` proves that no
        switch is possible — the floor stands in for ``best.cost`` in
        ``evaluate``'s own monotone arithmetic, with the stitch-up weight
        halved wherever a same-tree strategy switch is possible."""
        priced = self._price_running(current_tree, estimator, ordering, current_strategies)
        enumerator, running_strategies, current_remaining_cost, remaining = priced
        floor = enumerator.cost_floor()
        weight = self.STITCHUP_COST_WEIGHT
        if ordering is not None or running_strategies:
            weight *= 0.5
        if floor is None or (
            remaining > 0.02
            and floor * (remaining + weight * (1.0 - remaining))
            < self.switch_threshold * current_remaining_cost
        ):
            return self.evaluate(
                current_tree, estimator, ordering, current_strategies, priced=priced
            )
        self.invocations += 1
        return None

    def evaluate(
        self,
        current_tree: JoinTree,
        estimator: SelectivityEstimator,
        ordering: OrderingKnowledge | None = None,
        current_strategies: dict[frozenset[str], JoinStrategy] | None = None,
        *,
        priced: RunningPrice | None = None,
    ) -> ReOptimizationDecision:
        """Compare the running configuration against the best alternative.

        ``current_strategies`` describes the physical strategies the running
        plan actually uses; its merge nodes are re-costed with *current*
        in-order fractions (a promise-based merge choice over a source that
        turned out unordered is charged what it is really paying), while the
        recommendation gets a fresh strategy assignment from the latest
        ordering knowledge.  An open :meth:`poll` hands on its ``priced``.
        """
        self.invocations += 1
        if priced is None:
            priced = self._price_running(
                current_tree, estimator, ordering, current_strategies
            )
        enumerator, running_strategies, current_remaining_cost, remaining = priced
        best = enumerator.best_entry()
        best_tree, best_strategies = best.tree, best.strategies

        # Cost to finish with the current plan: the unread fraction of the
        # inputs at the current plan's (re-estimated) cost.  Work already done
        # — the hash tables holding the completed fraction — is sunk and must
        # be credited to the current plan (Section 4.2): an alternative plan
        # only processes the remaining source data, but its output then has to
        # be stitched up against the partitions built so far, which is charged
        # as ``completed * total`` of the alternative's cost.  Without that
        # term both sides are multiplied by the same ``remaining`` fraction
        # and progress cancels out of the switch decision entirely, so a
        # nearly finished query looks exactly as switch-worthy as a fresh one.
        completed = 1.0 - remaining
        same_tree = best_tree.leaf_order() == current_tree.leaf_order() and str(
            best_tree
        ) == str(current_tree)
        stitchup_weight = self.STITCHUP_COST_WEIGHT
        if same_tree:
            # Strategy-only switch (e.g. hash→merge on the same tree): every
            # partition of the old and new phase is keyed and shaped
            # identically, so the stitch-up reuses state without re-keying —
            # materially cheaper than stitching across different join orders.
            stitchup_weight *= 0.5
        best_remaining_cost = best.cost * (
            remaining + stitchup_weight * completed
        )
        same_strategies = algorithms_of(running_strategies) == algorithms_of(
            best_strategies
        )
        switch = (
            (not same_tree or not same_strategies)
            and remaining > 0.02
            and best_remaining_cost < self.switch_threshold * current_remaining_cost
        )
        return ReOptimizationDecision(
            switch=switch,
            current_tree=current_tree,
            recommended_tree=best_tree,
            current_cost=current_remaining_cost,
            recommended_cost=best_remaining_cost,
            remaining_fraction=remaining,
            current_strategies=running_strategies,
            recommended_strategies=best_strategies,
            same_tree=same_tree,
        )
