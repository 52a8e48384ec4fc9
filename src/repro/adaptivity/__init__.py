"""The unified adaptivity kernel.

Every adaptive behaviour of the system — corrective plan switching,
order-adaptive join-strategy selection, source-rate adaptivity and mirror
failover — flows through one mechanism:

* the :class:`~repro.core.monitor.ExecutionMonitor` folds raw operator
  counters into observed statistics and takes one
  :class:`~repro.adaptivity.events.SourceRateEvent` per source per poll;
* an :class:`~repro.adaptivity.controller.AdaptationController` hands the
  samples to registered :class:`~repro.adaptivity.policies.AdaptationPolicy`
  instances and arbitrates the actions they propose;
* the executors (corrective processor, baselines) apply the
  winning :class:`~repro.adaptivity.controller.AdaptationAction` — switching
  plans, re-prioritizing reads — without knowing which policy asked for it.

Adding a new adaptive behaviour means writing one policy class; the
executors, the monitor and the controller stay untouched (see the policy
author checklist in the README).
"""

from repro.adaptivity.controller import (
    AdaptationAction,
    AdaptationContext,
    AdaptationController,
    AdaptationRun,
    FailoverSourceAction,
    ReprioritizeReadsAction,
    SwitchPlanAction,
)
from repro.adaptivity.events import SourceRateEvent
from repro.adaptivity.policies import (
    AdaptationPolicy,
    JoinStrategyPolicy,
    PlanSwitchPolicy,
)
from repro.adaptivity.failover import MirrorFailoverPolicy
from repro.adaptivity.rate import SourceRatePolicy

__all__ = [
    "AdaptationAction",
    "AdaptationContext",
    "AdaptationController",
    "AdaptationPolicy",
    "AdaptationRun",
    "FailoverSourceAction",
    "JoinStrategyPolicy",
    "MirrorFailoverPolicy",
    "PlanSwitchPolicy",
    "ReprioritizeReadsAction",
    "SourceRateEvent",
    "SourceRatePolicy",
    "SwitchPlanAction",
]
