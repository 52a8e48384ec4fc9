"""Picklable hand-off payloads for the sharded serving tier.

The server (:mod:`repro.serving.sharded`) never ships live execution state
between processes — no clocks, no cursors, no compiled code objects.
Everything that crosses the FIFO hand-off queues is one of the plain-data
shapes below:

* :class:`SessionSpec` — one admitted query as data: the query, optional
  plan override, quantum size, and (for partition-parallel execution)
  per-partition source overrides.  The worker runs it as one corrective
  execution; compiled pipelines are rebuilt from generated source on the
  worker side (see :func:`repro.engine.compiled.bind_generated`), never
  pickled.
* :class:`ShardTask` — one worker's entire assignment: catalog snapshot,
  source pool, the :class:`~repro.core.options.ProcessorOptions` record,
  statistics snapshot, and the specs of every session
  routed to that shard.
* :class:`SessionResult` — one finished session: its identity plus the
  complete :class:`~repro.core.corrective.CorrectiveExecutionReport` (the
  report is plain data end to end, so workers return it whole and the
  differential harness can compare bits, not summaries).
* :class:`ShardResult` — one worker's return payload: its session results,
  its post-run statistics snapshot (folded into the front-end store in
  worker-id order), and wall-clock utilization telemetry.

These classes are listed in :mod:`repro.serving.channels`'s
``CROSS_PROCESS_TYPES``, which puts them — and every class their
annotations reference — under the analyzer's picklability rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.corrective import CorrectiveExecutionReport
from repro.core.options import ProcessorOptions
from repro.engine.cost import CostModel
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.serving.stats_cache import StatisticsSnapshot


@dataclass(frozen=True)
class SessionSpec:
    """One admitted query, as data a worker can rehydrate a session from."""

    index: int
    label: str
    query: SPJAQuery
    #: the session's chunk size (``poll_step_limit``)
    quantum_tuples: int = 200
    initial_tree: JoinTree | None = None
    #: label of the partitioned submission this spec is one fragment of
    #: (``None`` for ordinary sessions); partition fragments are excluded
    #: from statistics absorption — their exhausted-source counts describe
    #: a partition, not the relation.
    partition_of: str | None = None
    partition_index: int = 0
    #: relations whose data this session reads from a partition-local
    #: override instead of the shard's shared source pool
    source_overrides: dict[str, Relation] = field(default_factory=dict)


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker process needs to drive its scheduler shard."""

    worker_id: int
    #: always ``"round_robin"`` (admission order); checked by the worker
    policy: str
    catalog: Catalog
    sources: dict[str, object]
    specs: tuple[SessionSpec, ...]
    #: the knobs every session's processor is built with
    processor_options: ProcessorOptions = field(default_factory=ProcessorOptions)
    snapshot: StatisticsSnapshot | None = None
    share_statistics: bool = True
    #: the front-end's cost model (a plain dataclass of weights); ``None``
    #: means the worker builds a default one
    cost_model: CostModel | None = None


@dataclass(frozen=True)
class SessionResult:
    """One finished session, with its full report."""

    index: int
    label: str
    query_name: str
    worker_id: int
    report: CorrectiveExecutionReport
    partition_of: str | None = None
    partition_index: int = 0


@dataclass(frozen=True)
class ShardResult:
    """One worker's return payload over the result hand-off queue."""

    worker_id: int
    results: tuple[SessionResult, ...] = ()
    #: the worker-local cache's post-run state; ``None`` when the shard ran
    #: with statistics learning disabled
    snapshot: StatisticsSnapshot | None = None
    #: simulated seconds this shard serialized (the sum of its sessions'
    #: simulated seconds — each session ran on its own clock)
    shard_seconds: float = 0.0
    wall_seconds: float = 0.0
    busy_wall_seconds: float = 0.0
    #: formatted traceback when the shard failed; the front-end re-raises
    error: str | None = None
