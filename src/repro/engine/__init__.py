"""Execution engine: operators, state structures, cost accounting, executors.

The engine follows the Tukwila decomposition described in Section 3 of the
paper:

* **State structures** (:mod:`repro.engine.state`) store the tuples held by
  stateful operators (join inputs, aggregate accumulators) and are decoupled
  from the iteration strategy so they can be *shared and reused* across the
  plans of different adaptive-data-partitioning phases.
* **Operators** (:mod:`repro.engine.operators`) are pull-based iterators used
  for static plan execution by :class:`PullExecutor` (the pre-aggregation
  experiment); their group-by, ``GroupAccumulator``, is the one every
  execution path folds into.
* The **pipelined executor** (:mod:`repro.engine.pipelined`) is a push-based
  network of symmetric (pipelined) hash joins — Tukwila's workhorse join —
  whose execution can be suspended between steps, which is what makes
  mid-pipeline plan switching safe.
* **Cost accounting** (:mod:`repro.engine.cost`) charges abstract work units
  for every probe, insert, comparison and copy, and maintains a simulated
  clock so that network delay experiments are reproducible.
"""

from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock, WorkProfile
from repro.engine.executor import PullExecutor, materialize
from repro.engine.pipelined import PipelinedPlan, PipelinedExecutor

__all__ = [
    "CostModel",
    "ExecutionMetrics",
    "SimulatedClock",
    "WorkProfile",
    "PullExecutor",
    "materialize",
    "PipelinedPlan",
    "PipelinedExecutor",
]
