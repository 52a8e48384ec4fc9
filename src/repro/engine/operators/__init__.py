"""Aggregation state shared by every execution path.

:class:`GroupAccumulator` is the group-by the pipelined engine
(:mod:`repro.engine.pipelined`), corrective query processing and
stitch-up (:mod:`repro.core`) and each pre-aggregation window fold into.
The joins are the push network's nodes in :mod:`repro.engine.pipelined`.
"""

from repro.engine.operators.aggregate import GroupAccumulator

__all__ = ["GroupAccumulator"]
