"""Exposed-work costing: completion time under a stalled source's arrivals.

Two trees of near-equal total work can differ hugely in *completion time*
when one source's delivery has collapsed: work that does not depend on the
slow source's tuples is masked by the arrival stall (the engine computes
while it waits), while work downstream of the slow source serializes after
its arrivals.  The **exposed work** of a tree is the part of its completion
time the arrival window cannot absorb::

    exposed(tree) ≈ max(ungated_work − T_R, 0) + gated_work

where ``T_R`` is the estimated remaining arrival window of the slow source,
``gated_work`` is the cost attributable to that source's stream (its reads,
its side of every join node containing it, and those nodes' outputs), and
``ungated_work`` is everything else — chargeable while waiting.

Its one consumer is the mid-flight
:class:`~repro.adaptivity.rate.SourceRatePolicy`, which re-scores the
*running* tree against a gating candidate at every poll.  The model lives in
the optimizer layer because it prices trees with the optimizer's estimator
and enumerator.
"""

from __future__ import annotations

from repro.engine.cost import CostModel
from repro.optimizer.plans import JoinTree
from repro.optimizer.statistics import ObservedStatistics, SelectivityEstimator

#: cap on the estimated remaining-arrival window (keeps completion-time
#: comparisons finite when the observed rate is ~0)
MAX_REMAINING_SECONDS = 1.0e9


def remaining_fraction(
    estimator: SelectivityEstimator, observed: ObservedStatistics, name: str
) -> float:
    """Unconsumed fraction of one source (1.0 when nothing was read)."""
    obs = observed.source(name)
    read = obs.tuples_read if obs is not None else 0
    base = estimator.base_cardinality(name)
    return min(max(1.0 - read / max(base, 1.0), 0.0), 1.0)


def gating_tree(query, enumerator, relation: str) -> JoinTree | None:
    """Best tree that joins ``relation`` last, on top of the cheapest tree
    over the remaining relations (minimal work downstream of the slow
    source).  ``None`` when the query has no joins, or when gating would
    force a cross product."""
    rest = frozenset(query.relations) - {relation}
    if not rest:
        return None
    if not query.predicates_between(rest, frozenset((relation,))):
        return None
    try:
        below = enumerator.best_tree_for(rest)
    except ValueError:
        return None
    return JoinTree.join(below, JoinTree.leaf(relation))


def split_remaining_cost(
    query,
    tree: JoinTree,
    estimator: SelectivityEstimator,
    relation: str,
    observed,
    cost_model: CostModel,
) -> tuple[float, float]:
    """Split a tree's estimated *remaining* cost into (gated, ungated).

    Gated work requires ``relation``'s tuples: reading them, pushing them
    (and every intermediate containing them) through join nodes, and
    materializing the outputs of nodes covering the relation.  Ungated work
    — other sources' reads, inserts and probes, and intermediates not
    involving the relation — can proceed while the slow source stalls.
    Every contribution is scaled by the *unconsumed fraction* of its driving
    relations (a mid-flight switch only re-processes remaining data
    in-phase; cross-phase combinations go to stitch-up, which competing
    candidates pay comparably), so the model compares what is still ahead,
    not the whole run.  Mirrors the hash-join charges of
    :class:`~repro.optimizer.cost_model.PlanCostModel` (merge-strategy
    refinements are ignored: a completion-time *comparison* only needs the
    dominant terms).
    """
    model = cost_model
    # [gated, ungated], summed in visiting order
    split = [0.0, 0.0]
    output_card, output_fraction = _split_visit(
        tree, estimator, relation, observed, model, split
    )
    gated, ungated = split
    if query.aggregation is not None:
        # Final answers need every source, so aggregation work is gated.
        gated += output_card * output_fraction * model.aggregate_update * max(
            len(query.aggregation.aggregates), 1
        )
    return gated, ungated


def _split_visit(
    node: JoinTree,
    estimator: SelectivityEstimator,
    relation: str,
    observed,
    model: CostModel,
    split: list[float],
) -> tuple[float, float]:
    """The bottom-up pass of :func:`split_remaining_cost`: adds ``node``'s
    costs to ``split`` and returns (estimated output cardinality, remaining
    fraction).  Module-level: a closure calling itself would hold itself in
    a reference cycle."""
    relations = node.relations()
    if node.is_leaf:
        base = estimator.base_cardinality(node.relation)
        fraction = remaining_fraction(estimator, observed, node.relation)
        cost = base * fraction * (model.tuple_read + model.predicate_eval)
        split[0 if node.relation == relation else 1] += cost
        return estimator.estimate_cardinality(relations), fraction
    left_card, left_fraction = _split_visit(
        node.left, estimator, relation, observed, model, split
    )
    right_card, right_fraction = _split_visit(
        node.right, estimator, relation, observed, model, split
    )
    per_input = model.hash_insert + model.hash_probe
    left_cost = left_card * left_fraction * per_input
    right_cost = right_card * right_fraction * per_input
    if relation in node.left.relations():
        split[0] += left_cost
        split[1] += right_cost
    elif relation in node.right.relations():
        split[0] += right_cost
        split[1] += left_cost
    else:
        split[1] += left_cost + right_cost
    card = estimator.estimate_cardinality(relations)
    fraction = left_fraction * right_fraction
    output_cost = card * fraction * model.tuple_copy
    split[0 if relation in relations else 1] += output_cost
    return card, fraction

