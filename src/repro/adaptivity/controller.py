"""The adaptation controller: one decide-and-switch loop for every executor.

Before this kernel existed, each executor hand-wired its own
monitor → re-optimizer → switch loop.  Now an executor drives a single
:class:`AdaptationController`:

* :meth:`AdaptationController.begin` opens an :class:`AdaptationRun` for one
  query execution — policies get their ``begin_run`` hook (e.g. the
  join-strategy policy attaches order detectors and seeds promises);
* at every monitor poll the executor calls :meth:`AdaptationRun.poll`, which
  drains the monitor's rate samples into every policy's ``observe``,
  collects the actions the policies propose, applies side-effecting
  actions (read re-prioritization) and arbitrates plan switches;
* the executor applies the winning :class:`SwitchPlanAction` exactly as it
  used to apply the re-optimizer's verdict — it never needs to know *which*
  policy asked for the switch, which is what lets new adaptive behaviours
  ship as policy classes without touching the executors.

Arbitration is deterministic: policies are consulted in registration order
and the first switch proposal wins (re-prioritizations all apply).  The
default policy stack reproduces the pre-kernel behaviour bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.optimizer.ordering import OrderingKnowledge
from repro.optimizer.statistics import SelectivityEstimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptivity.policies import AdaptationPolicy


@dataclass
class AdaptationContext:
    """What every policy consults at one poll: the query, the monitor's
    observations, the simulated time, the running plan, and the one
    estimator and ordering view all policies share.

    ``estimator`` is the poll's :class:`SelectivityEstimator` over the
    observations (its memos are valid for this poll only); ``ordering`` is
    the run's :class:`OrderingKnowledge` (``None`` unless a policy supplies
    one, i.e. unless order adaptivity is on).
    """

    query: Any
    observed: Any
    now: float
    current_tree: Any
    current_strategies: dict[frozenset[str], Any] | None
    estimator: SelectivityEstimator
    ordering: OrderingKnowledge | None

    def __repr__(self) -> str:
        return (
            f"AdaptationContext(query={getattr(self.query, 'name', '?')!r}, "
            f"t={self.now:.3f}s)"
        )


class AdaptationAction:
    """Base class for what a policy wants the executor to do."""

    reason: str = ""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.reason!r})"


class SwitchPlanAction(AdaptationAction):
    """Abandon the running plan for ``tree`` at the next consistent point.

    ``strategies`` carries the proposing policy's physical-strategy
    recommendation for reporting; the executor re-derives the actual
    assignment when it builds the next phase (fresh knowledge may have
    arrived by then), exactly as the pre-kernel corrective loop did.
    """

    def __init__(
        self,
        tree: Any,
        reason: str,
        strategies: dict[frozenset[str], Any] | None = None,
        improvement: float = 0.0,
        same_tree: bool = False,
        policy: str = "",
    ) -> None:
        self.tree = tree
        self.reason = reason
        self.strategies = strategies
        self.improvement = improvement
        self.same_tree = same_tree
        self.policy = policy

    def __repr__(self) -> str:
        return (
            f"SwitchPlanAction(tree={self.tree}, policy={self.policy!r}, "
            f"improvement={self.improvement:.0%}, reason={self.reason!r})"
        )


class ReprioritizeReadsAction(AdaptationAction):
    """Demote (``priority > 0``) or restore (``priority == 0``) source reads.

    The read scheduler keeps its availability-driven order but, among
    equally available tuples, prefers lower priority numbers — the
    source-rate policy uses this to steer the water-filling schedule away
    from sources whose delivery has collapsed (see
    ``PipelinedPlan.read_priorities``).
    """

    def __init__(self, priorities: dict[str, int], reason: str, policy: str = "") -> None:
        self.priorities = dict(priorities)
        self.reason = reason
        self.policy = policy

    def __repr__(self) -> str:
        return (
            f"ReprioritizeReadsAction({self.priorities!r}, "
            f"policy={self.policy!r}, reason={self.reason!r})"
        )


class FailoverSourceAction(AdaptationAction):
    """Re-point one relation's cursor at a mirror, opened at ``start_at``.

    Applying it calls ``cursor.failover_to(mirror, start_at)``: the mirror
    is opened at the cursor's consumed offset, so it supplies the same rows
    the dead primary would have delivered from there, on the mirror's
    arrival schedule.  The cursor object itself survives — the running plan
    never learns the source changed — so answers are bit-identical by
    construction; only arrival times (and therefore completion time) move.
    """

    def __init__(
        self,
        relation: str,
        mirror: Any,
        start_at: float,
        reason: str,
        policy: str = "",
    ) -> None:
        self.relation = relation
        self.mirror = mirror
        self.start_at = start_at
        self.reason = reason
        self.mirror_name: str = mirror.name
        self.policy = policy

    def __repr__(self) -> str:
        return (
            f"FailoverSourceAction({self.relation!r} -> {self.mirror_name!r}, "
            f"policy={self.policy!r}, reason={self.reason!r})"
        )


class AdaptationRun:
    """Per-execution adaptation state: one query's trip through the kernel."""

    def __init__(
        self,
        controller: "AdaptationController",
        query: Any,
        catalog: Any,
        monitor: Any | None = None,
        cursors: dict[str, Any] | None = None,
        sources: dict[str, Any] | None = None,
    ) -> None:
        self.controller = controller
        self.query = query
        self.catalog = catalog
        self.monitor = monitor
        self.cursors = cursors or {}
        self.sources = sources or {}
        #: live read-priority overrides (relation -> priority class); the
        #: executor mirrors this into every phase's plan
        self.read_priorities: dict[str, int] = {}
        self.switches: list[SwitchPlanAction] = []
        self.failovers: list[FailoverSourceAction] = []
        self.reprioritizations: int = 0
        self._scratch: dict[int, dict[str, Any]] = {}
        for policy in controller.policies:
            policy.begin_run(self)

    # -- per-policy scratch space ------------------------------------------------

    def scratch(self, policy: "AdaptationPolicy") -> dict[str, Any]:
        """Private per-run state store for one policy instance."""
        return self._scratch.setdefault(id(policy), {})

    # -- phase hooks ---------------------------------------------------------------

    def current_ordering(self) -> Any | None:
        """Ordering knowledge for plan choice (None unless a policy supplies it)."""
        for policy in self.controller.policies:
            ordering = policy.current_ordering(self)
            if ordering is not None:
                return ordering
        return None

    def phase_strategies(
        self, tree: Any, ordering: Any | None
    ) -> dict[frozenset[str], Any] | None:
        """Physical join-strategy assignment for a phase about to start, from
        the :meth:`current_ordering` gathered as it begins."""
        for policy in self.controller.policies:
            strategies = policy.phase_strategies(self, tree, ordering)
            if strategies is not None:
                return strategies
        return None

    # -- the decide loop -----------------------------------------------------------

    def poll(
        self,
        plan: Any,
        current_tree: Any,
        current_strategies: dict[frozenset[str], Any] | None,
        now: float,
        can_switch: bool,
    ) -> SwitchPlanAction | None:
        """One adaptation round: hand out rate samples, collect and apply actions.

        Returns the winning plan switch (or ``None`` to keep going).  The
        executor must have refreshed its monitor immediately before calling,
        so the queued samples and ``monitor.observed`` describe the present.
        The poll's estimator and ordering view are built once, after every
        ``observe``, and shared by every ``decide``.
        """
        policies = self.controller.policies
        if self.monitor is not None:
            for event in self.monitor.drain_events():
                for policy in policies:
                    policy.observe(self, event)
        observed = self.monitor.observed if self.monitor is not None else None
        context = AdaptationContext(
            query=self.query,
            observed=observed,
            now=now,
            current_tree=current_tree,
            current_strategies=current_strategies,
            estimator=SelectivityEstimator(self.catalog, self.query, observed),
            ordering=self.current_ordering(),
        )
        winner: SwitchPlanAction | None = None
        for policy in policies:
            proposed = policy.decide(self, context)
            if proposed is None:
                continue
            if isinstance(proposed, AdaptationAction):
                proposed = (proposed,)
            for action in proposed:
                if isinstance(action, ReprioritizeReadsAction):
                    self._apply_priorities(action, plan)
                elif isinstance(action, FailoverSourceAction):
                    if not action.policy:
                        action.policy = policy.name
                    self._apply_failover(action)
                elif isinstance(action, SwitchPlanAction):
                    if not action.policy:
                        action.policy = policy.name
                    if can_switch and winner is None:
                        winner = action
        if winner is not None:
            self.switches.append(winner)
        return winner

    def _apply_priorities(self, action: ReprioritizeReadsAction, plan: Any) -> None:
        if action.priorities == {
            name: self.read_priorities.get(name, 0) for name in action.priorities
        }:
            return
        self.read_priorities.update(action.priorities)
        # Restored (priority 0) entries are the default — drop them so a
        # fully recovered pool leaves the dict empty and the engine's
        # priority-free fast paths (including the compiled all-immediate
        # driver) re-engage for the rest of the run.
        for name in [
            name for name, priority in self.read_priorities.items() if priority == 0
        ]:
            del self.read_priorities[name]
        self.reprioritizations += 1
        if plan is not None and hasattr(plan, "read_priorities"):
            plan.read_priorities = dict(self.read_priorities)

    def _apply_failover(self, action: FailoverSourceAction) -> None:
        cursor = self.cursors.get(action.relation)
        if cursor is None or not hasattr(cursor, "failover_to"):
            return
        cursor.failover_to(action.mirror, action.start_at)
        self.failovers.append(action)

    # -- reporting -------------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        return {
            "policies": [policy.name for policy in self.controller.policies],
            "switches": [
                {"policy": action.policy, "reason": action.reason}
                for action in self.switches
            ],
            "reprioritizations": self.reprioritizations,
            "read_priorities": dict(self.read_priorities),
            "failovers": [
                {
                    "relation": action.relation,
                    "mirror": action.mirror_name,
                    "policy": action.policy,
                    "reason": action.reason,
                }
                for action in self.failovers
            ],
        }


class AdaptationController:
    """Registry of adaptation policies plus the machinery to consult them."""

    def __init__(self, policies: Iterable["AdaptationPolicy"] = ()) -> None:
        self._policies: list["AdaptationPolicy"] = list(policies)

    @property
    def policies(self) -> tuple["AdaptationPolicy", ...]:
        return tuple(self._policies)

    def register(self, policy: "AdaptationPolicy") -> "AdaptationPolicy":
        """Append ``policy`` to the consultation order; returns it.

        This is the extension point the kernel exists for: a new adaptive
        behaviour is one policy class registered here — no executor code
        changes (proven by the stub-policy unit test).
        """
        self._policies.append(policy)
        return policy

    def policy(self, name: str) -> "AdaptationPolicy | None":
        """Look a registered policy up by its ``name`` (None when absent)."""
        for policy in self._policies:
            if policy.name == name:
                return policy
        return None

    def begin(
        self,
        query: Any,
        catalog: Any,
        monitor: Any | None = None,
        cursors: dict[str, Any] | None = None,
        sources: dict[str, Any] | None = None,
    ) -> AdaptationRun:
        """Open the adaptation run for one query execution."""
        return AdaptationRun(
            self, query, catalog, monitor=monitor, cursors=cursors, sources=sources
        )

    # -- cross-query (serving) hooks --------------------------------------------------

    def session_starting(self, query: Any, catalog: Any) -> Any | None:
        """A serving session is being activated: collect seed statistics.

        The first policy that supplies seed observations wins (the shared
        learning policy is the only supplier in the default stack).
        """
        for policy in self._policies:
            seed = policy.session_starting(query, catalog)
            if seed is not None:
                return seed
        return None

    def session_finished(self, report: Any, catalog: Any) -> None:
        """A serving session completed: let policies absorb what it learned."""
        for policy in self._policies:
            policy.session_finished(report, catalog)

    def __repr__(self) -> str:
        names = ", ".join(policy.name for policy in self._policies)
        return f"AdaptationController([{names}])"
