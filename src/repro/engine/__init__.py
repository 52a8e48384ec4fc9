"""Execution engine: operators, state structures, cost accounting, executors.

The engine follows the Tukwila decomposition described in Section 3 of the
paper:

* **State structures** (:mod:`repro.engine.state`) store the tuples held by
  stateful operators (join inputs, aggregate accumulators) and are decoupled
  from the iteration strategy so they can be *shared and reused* across the
  plans of different adaptive-data-partitioning phases.
* The **pipelined executor** (:mod:`repro.engine.pipelined`) is the one
  engine: a push-based network of symmetric (pipelined) hash joins —
  Tukwila's workhorse join — whose execution can be suspended between steps,
  which is what makes mid-pipeline plan switching safe.  A plan's
  pre-aggregation points run inside it as window stages (the Figure 6
  experiment).  Nothing in a plan points back at it (its root emits
  through a ``PlanOutput``), so reference counting frees a replaced phase.
* **Aggregation** (:mod:`repro.engine.operators`) is ``GroupAccumulator``,
  the group-by every execution path folds into.
* **Cost accounting** (:mod:`repro.engine.cost`) charges abstract work units
  for every probe, insert, comparison and copy, and maintains a simulated
  clock so that network delay experiments are reproducible.
"""

from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock, WorkProfile
from repro.engine.pipelined import PipelinedPlan, PipelinedExecutor

__all__ = [
    "CostModel",
    "ExecutionMetrics",
    "SimulatedClock",
    "WorkProfile",
    "PipelinedPlan",
    "PipelinedExecutor",
]
