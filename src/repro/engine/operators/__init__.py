"""Pull-based (iterator-model) physical operators.

These operators implement the conventional open/next/close pipeline that
:class:`~repro.engine.executor.PullExecutor` builds for static plans — the
pre-aggregation experiment (Fig. 6) runs on it.  :class:`GroupAccumulator`
is also the group-by every other execution path folds into.  The adaptive,
suspendable execution path lives in
:mod:`repro.engine.pipelined` (push-based symmetric hash join network) and in
:mod:`repro.core`.
"""

from repro.engine.operators.base import Operator, OperatorError
from repro.engine.operators.scan import Scan
from repro.engine.operators.filter import Filter
from repro.engine.operators.project import ProjectOp
from repro.engine.operators.hash_join import HybridHashJoin
from repro.engine.operators.pipelined_hash import SymmetricHashJoin
from repro.engine.operators.aggregate import (
    GroupAccumulator,
    HashAggregate,
    Pseudogroup,
    TraditionalPreAggregate,
)

__all__ = [
    "Operator",
    "OperatorError",
    "Scan",
    "Filter",
    "ProjectOp",
    "HybridHashJoin",
    "SymmetricHashJoin",
    "GroupAccumulator",
    "HashAggregate",
    "Pseudogroup",
    "TraditionalPreAggregate",
]
