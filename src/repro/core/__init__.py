"""Adaptive data partitioning (ADP) core.

This package contains the paper's contributions proper:

* :mod:`repro.core.monitor` — runtime execution monitoring feeding the
  re-optimizer (Section 3.3).
* :mod:`repro.core.phases` — bookkeeping for the sequence of plan phases.
* :mod:`repro.core.stitchup` — stitch-up planning and the specialized
  stitch-up join (Section 3.4).
* :mod:`repro.core.corrective` — corrective query processing (Section 4).
* :mod:`repro.core.options` — its knobs, one validated record.
* :mod:`repro.core.complementary` — complementary join pairs exploiting
  (partial) order (Section 5).
* :mod:`repro.core.preaggregation` — adjustable-window pre-aggregation
  (Section 6).
* :mod:`repro.core.router` — the bounded window that pre-sorts tuples ahead
  of the complementary pair's order check (Section 3.3's router).
"""

from repro.core.monitor import ExecutionMonitor
from repro.core.phases import PhaseManager, PhaseRecord
from repro.core.stitchup import StitchUpExecutor, StitchUpReport
from repro.core.corrective import CorrectiveExecutionReport, CorrectiveQueryProcessor
from repro.core.options import ProcessorOptions
from repro.core.complementary import (
    ComplementaryJoinPair,
    ComplementaryJoinReport,
    PipelinedHashJoinBaseline,
)
from repro.core.preaggregation import WindowedPreAggregator
from repro.core.router import PriorityQueueReorderer

__all__ = [
    "ExecutionMonitor",
    "PhaseManager",
    "PhaseRecord",
    "StitchUpExecutor",
    "StitchUpReport",
    "CorrectiveExecutionReport",
    "CorrectiveQueryProcessor",
    "ProcessorOptions",
    "ComplementaryJoinPair",
    "ComplementaryJoinReport",
    "PipelinedHashJoinBaseline",
    "WindowedPreAggregator",
    "PriorityQueueReorderer",
]
