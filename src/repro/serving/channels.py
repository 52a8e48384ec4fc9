"""What the sharded tier may share: the clock's writers and what crosses a process.

A shard runs each session to completion on a private
:class:`~repro.engine.cost.SimulatedClock` and receives everything it reads
in one pickled :class:`~repro.serving.specs.ShardTask`
(:mod:`repro.serving.sharded`).  Two things keep that sound, and the
analyzer (:mod:`repro.analysis.sharding`) checks both against this file:

* ``CLOCK_WRITERS`` — the only functions that may reach a clock mutator
  (``sharding.clock-discipline``); everything else reads ``.now``;
* ``CROSS_PROCESS_TYPES`` — the classes that cross a process boundary; each,
  its subclasses and every class their fields reference must pickle
  (``sharding.picklability``).

The analyzer reads both tuples with :func:`ast.literal_eval` and never
imports this module, so the entries stay string literals.  An entry that
names no function or class of the package is a finding: it goes with what
it named.
"""

from __future__ import annotations

#: ``path::Qualified.name`` of every function that may advance, wait on or
#: charge a simulated clock
CLOCK_WRITERS: tuple[str, ...] = (
    # the engine's driver charges its work and waits for arrivals
    "engine/pipelined.py::PipelinedPlan.step_batch",
    "engine/pipelined.py::PipelinedPlan._sync_clock",
    # the complementary-join baseline drives its own read loop
    "core/complementary.py::_JoinDriver.read",
    "core/complementary.py::_JoinDriver.sync_clock",
    # stitch-up charges its routes' work once they have run
    "core/stitchup.py::StitchUpExecutor._charge_clock",
)

#: classes that travel between processes (subclasses included)
CROSS_PROCESS_TYPES: tuple[str, ...] = (
    # the task hand-off: one ShardTask per worker, with its session specs and
    # the run-start statistics snapshot
    "ShardTask",
    "SessionSpec",
    "StatisticsSnapshot",
    # the result FIFO: one ShardResult per worker, carrying whole reports
    "ShardResult",
    "SessionResult",
    "CorrectiveExecutionReport",
    "ExecutionMetrics",
    "TableStatistics",
    # the statistics cache: snapshotted into every task, and hosted whole in
    # a manager process by the store
    "SharedStatisticsCache",
    "SharedStatisticsStore",
    "ObservedStatistics",
    # partition-parallel fragments read hash-partitioned Relation overrides
    "PartitionPlan",
    "Relation",
)
