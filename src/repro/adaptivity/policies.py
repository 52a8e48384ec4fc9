"""Adaptation policies: the pluggable behaviours of the adaptivity kernel.

A policy is one self-contained adaptive behaviour.  The base class defines
the full hook surface; a policy implements only what it needs:

``begin_run``
    One query execution is starting — attach instrumentation (detectors),
    seed the monitor with prior knowledge.
``observe``
    One :class:`~repro.adaptivity.events.SourceRateEvent` sample arrived.
    Called for every sample, before any ``decide`` of the same poll.
``decide``
    The executor reached a consistent point (a monitor poll): return an
    :class:`~repro.adaptivity.controller.AdaptationAction` or ``None``.
``current_ordering`` / ``phase_strategies``
    Knowledge for plan choice and physical-strategy assignment when a phase
    is (re)built.

**Policy-author checklist** (expanded, with the failover hooks, in
``src/repro/adaptivity/README.md``): pick a unique ``name``;
keep per-run state in ``run.scratch(self)`` (policy instances outlive runs);
derive everything from rate samples / ``AdaptationContext`` — ``query``,
``observed``, ``now``, ``current_tree``, ``current_strategies`` and the
poll's shared ``estimator`` and ``ordering`` (build no estimator of your
own; never read engine internals); make ``decide`` deterministic — ties in
the controller are broken by registration order; actions must never change
answers, only cost (plan switches are stitched up, re-prioritizations only
reorder reads).

The two policies here re-home behaviour that used to be hard-wired into
``core/corrective.py``; the differential suites pin that the re-homing is
bit-identical.
"""

from __future__ import annotations

from repro.engine.cost import CostModel
from repro.optimizer.ordering import (
    OrderingKnowledge,
    algorithms_of,
    plan_join_strategies,
)
from repro.optimizer.reoptimizer import ReOptimizer

from repro.adaptivity.controller import (
    AdaptationAction,
    AdaptationContext,
    AdaptationRun,
    SwitchPlanAction,
)
from repro.adaptivity.events import SourceRateEvent


class AdaptationPolicy:
    """Base class / protocol: every hook is an overridable no-op."""

    name = "policy"

    def begin_run(self, run: AdaptationRun) -> None:
        """A query execution is starting (cursors exist, nothing has run)."""

    def observe(self, run: AdaptationRun, event: SourceRateEvent) -> None:
        """The monitor took one rate sample of one source."""

    def decide(
        self, run: AdaptationRun, context: AdaptationContext
    ) -> AdaptationAction | None:
        """Propose an action at a consistent point (or ``None``)."""
        return None

    def current_ordering(self, run: AdaptationRun):
        """Ordering knowledge for initial plan choice (``None`` = no opinion)."""
        return None

    def phase_strategies(self, run: AdaptationRun, tree, ordering) -> dict | None:
        """Physical strategy assignment for a phase (``None`` = no opinion),
        given the run's ordering knowledge as the phase begins."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class PlanSwitchPolicy(AdaptationPolicy):
    """Cost-based corrective plan switching (wraps the :class:`ReOptimizer`).

    This is the paper's core adaptation: at every poll, re-estimate the cost
    of finishing with the running tree against the best alternative under
    the statistics observed so far, and propose a switch when the
    alternative clears the threshold (stitch-up cost included).
    """

    name = "plan_switch"

    def __init__(
        self, cost_model: CostModel | None = None, switch_threshold: float = 0.8
    ) -> None:
        self.reoptimizer = ReOptimizer(cost_model, switch_threshold)

    @property
    def invocations(self) -> int:
        """How many times the wrapped re-optimizer has been consulted."""
        return self.reoptimizer.invocations

    def decide(
        self, run: AdaptationRun, context: AdaptationContext
    ) -> AdaptationAction | None:
        decision = self.reoptimizer.poll(
            context.current_tree,
            context.estimator,
            context.ordering,
            context.current_strategies,
        )
        if decision is None or not decision.switch:
            return None
        if decision.same_tree and decision.strategies_changed:
            reason = (
                f"re-optimizer switched join strategies to "
                f"{sorted(set(algorithms_of(decision.recommended_strategies).values()))} "
                f"(estimated {decision.improvement:.0%} cheaper)"
            )
        else:
            reason = (
                f"re-optimizer found a plan estimated "
                f"{decision.improvement:.0%} cheaper"
            )
        return SwitchPlanAction(
            tree=decision.recommended_tree,
            reason=reason,
            strategies=decision.recommended_strategies,
            improvement=decision.improvement,
            same_tree=decision.same_tree,
            policy=self.name,
        )


class JoinStrategyPolicy(AdaptationPolicy):
    """Order-adaptive physical-strategy selection (wraps ordering knowledge).

    Attaches an order detector to every join attribute's cursor, seeds the
    monitor with the catalog's ordering promises, and — whenever a phase is
    built — fuses promises with runtime observations
    (:meth:`OrderingKnowledge.gather`) to assign merge joins to
    (near-)sorted nodes.  Mid-flight hash↔merge switching itself rides
    through :class:`PlanSwitchPolicy` (whose re-optimizer re-costs the
    running strategies via ``OrderingKnowledge.refresh_strategies``).
    """

    name = "join_strategy"

    #: fraction of out-of-order arrivals a stream may carry and still count
    #: as (near-)sorted
    ORDER_TOLERANCE = 0.05

    def __init__(self, catalog) -> None:
        self.catalog = catalog

    def begin_run(self, run: AdaptationRun) -> None:
        # Track arrival order of every join attribute at its cursor, and
        # seed the catalog's ordering promises so the initial plan can
        # already exploit them (detectors verify the promises as data
        # flows; a lie surfaces at the next re-optimization poll).
        for predicate in run.query.join_predicates:
            for relation, attribute in (
                (predicate.left_relation, predicate.left_attr),
                (predicate.right_relation, predicate.right_attr),
            ):
                cursor = run.cursors.get(relation)
                if cursor is not None:
                    cursor.ensure_order_detector(
                        attribute, tolerance=self.ORDER_TOLERANCE
                    )
        if run.monitor is None:
            return
        for relation in run.query.relations:
            if relation in self.catalog:
                for attribute in self.catalog.statistics(relation).sorted_on:
                    run.monitor.observed.record_promised_ordering(relation, attribute)

    def current_ordering(self, run: AdaptationRun):
        observed = run.monitor.observed if run.monitor is not None else None
        return OrderingKnowledge.gather(self.catalog, run.query, observed)

    def phase_strategies(self, run: AdaptationRun, tree, ordering) -> dict | None:
        return plan_join_strategies(run.query, tree, ordering)
