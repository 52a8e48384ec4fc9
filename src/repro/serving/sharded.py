"""The query server: admission and statistics here, execution in shards.

:class:`ShardedQueryServer` admits SPJA queries over a shared catalog and
source pool.  It owns admission (queries become picklable
:class:`~repro.serving.specs.SessionSpec` records), the deterministic
session→worker routing (:func:`~repro.serving.scheduler.shard_assignment` —
plain round-robin by admission index), and the persistent statistics cache.
All execution happens in the shards (:mod:`repro.serving.worker`): each is
one :class:`~repro.serving.specs.ShardTask`, run in a worker process, or in
the calling process with ``start_method="inline"``; it runs its sessions one
at a time to completion in admission order and returns one
:class:`~repro.serving.specs.ShardResult`.  Both are listed in
:mod:`repro.serving.channels` as cross-process types.

Determinism contract: session results (multisets, metrics, phase counts,
simulated seconds) are bit-identical to solo runs of the same queries.
Each session is one plain corrective execution, exactly like a solo run,
and each reads the catalog as it stood at the start of the run (the
run-start snapshot's cardinalities, never what a session of the same run
learned), so neither the shard a session lands in nor the sessions run
before it can show in its result.  The front-end folds worker statistics snapshots in worker-id order,
so the persistent cache's end state never depends on wall-clock races.
Wall-clock *speed* is where the workers show up: shards execute concurrently
across processes — the benchmark's ``serve_sharded`` workload
(``python -m bench.run``) is the instrument for it.

Partition-parallel execution rides on the same fabric:
:meth:`ShardedQueryServer.submit_partitioned` hash-partitions one heavy
query's join inputs (:mod:`repro.serving.partition`), admits one fragment
spec per partition (round-robin routing spreads them across workers), and
merges fragment outputs deterministically at the root when results arrive.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.core.corrective import CorrectiveExecutionReport
from repro.core.options import ProcessorOptions, resolve_options
from repro.engine.collector import collector_paused
from repro.engine.cost import CostModel
from repro.io.wallclock import wall_now
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serving.partition import (
    PartitionPlan,
    build_partition_plan,
    merge_partition_results,
)
from repro.serving.scheduler import ROUND_ROBIN, check_policy, shard_assignment
from repro.serving.specs import SessionResult, SessionSpec, ShardResult, ShardTask
from repro.serving.stats_cache import SharedStatisticsCache, StatisticsSnapshot
from repro.serving.worker import drive_shard, worker_main
from repro.sources.source import LocalSource


#: how often the front-end, while waiting for shard results, checks that the
#: workers it is waiting for are still alive
DEAD_WORKER_POLL_SECONDS = 0.5
#: how long the front-end waits for the next shard result before it gives
#: the run up as hung
RESULT_TIMEOUT_SECONDS = 600.0


class StatisticsBackend(Protocol):
    """What the front-end needs from its persistent statistics store — both
    :class:`SharedStatisticsCache` (in-process) and
    :class:`~repro.serving.stats_store.SharedStatisticsStore` (cross-process
    manager) satisfy it."""

    def snapshot_state(self) -> StatisticsSnapshot: ...

    def absorb_snapshot(self, snapshot: StatisticsSnapshot) -> None: ...

    def summary(self) -> dict[str, int]: ...


@dataclass
class ServedQuery:
    """One completed query: its identity and its execution report."""

    label: str
    query_name: str
    report: CorrectiveExecutionReport

    @property
    def latency(self) -> float:
        """The query's simulated seconds (it ran on its own clock)."""
        return self.report.simulated_seconds

    @property
    def rows(self) -> list[tuple[object, ...]]:
        return self.report.rows

    @property
    def schema(self) -> Schema:
        return self.report.schema

    @property
    def phases(self) -> int:
        return self.report.num_phases


@dataclass
class WorkerSummary:
    """One worker's telemetry for a sharded run."""

    worker_id: int
    sessions: int
    #: simulated seconds the shard's sessions charged in total
    shard_seconds: float
    #: wall seconds the worker spent driving its shard
    wall_seconds: float
    #: wall seconds inside session executions (excludes queue and pickling
    #: overhead)
    busy_wall_seconds: float


@dataclass
class PartitionedServedQuery:
    """One partition-parallel submission's merged result."""

    label: str
    query_name: str
    partitions: int
    edge: str
    rows: list[tuple]
    schema: Schema
    fragments: list[SessionResult]

    @property
    def simulated_seconds(self) -> float:
        """Simulated seconds of the slowest fragment (fragments run
        concurrently on separate workers)."""
        return max(
            (fragment.report.simulated_seconds for fragment in self.fragments),
            default=0.0,
        )


@dataclass
class ServingReport:
    """Everything one serving run produced."""

    policy: str
    batch_size: int | None
    quantum_tuples: int
    served: list[ServedQuery]
    #: simulated seconds of the longest session or partitioned query (each
    #: ran on its own clock); the seconds a shard serialized by running its
    #: sessions back to back are its ``WorkerSummary.shard_seconds``
    makespan: float
    workers: int
    start_method: str
    wall_seconds: float
    stats_cache_summary: dict[str, int] = field(default_factory=dict)
    worker_summaries: list[WorkerSummary] = field(default_factory=list)
    partitioned: list[PartitionedServedQuery] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.served)


class ShardedQueryServer:
    """Admit queries in-process; execute them on N shards."""

    def __init__(
        self,
        catalog: Catalog,
        sources: dict[str, object],
        cost_model: CostModel | None = None,
        policy: str = ROUND_ROBIN,
        workers: int = 2,
        quantum_tuples: int = 200,
        stats_cache: StatisticsBackend | None = None,
        share_statistics: bool = True,
        start_method: str | None = None,
        options: ProcessorOptions | None = None,
        **knobs: Any,
    ) -> None:
        """``workers`` is the shard count; ``start_method`` picks the
        multiprocessing start method (``None`` = platform default, e.g.
        ``fork`` on Linux) or the special value ``"inline"`` which drives
        every shard in the calling process — same results, no concurrency —
        for debugging and deterministic unit tests.  ``policy`` is accepted
        only as ``"round_robin"``: a shard runs its sessions in admission
        order.
        ``quantum_tuples`` is each session's chunk size (its
        ``poll_step_limit``).  ``share_statistics=False`` runs every session
        without the statistics cache: nothing is seeded, published or
        learned.  ``options`` and the keyword ``knobs`` are
        every session's :class:`~repro.core.options.ProcessorOptions`; each
        worker builds its processors from this one record."""
        if workers < 1:
            raise ValueError("workers must be positive")
        if quantum_tuples < 1:
            raise ValueError("quantum_tuples must be positive")
        self.options = resolve_options(options, knobs)
        self.catalog = catalog.copy()
        self.sources = dict(sources)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.policy = check_policy(policy)
        self.workers = workers
        self.quantum_tuples = quantum_tuples
        self.stats_cache: StatisticsBackend = (
            stats_cache if stats_cache is not None else SharedStatisticsCache()
        )
        self.share_statistics = share_statistics
        self.start_method = start_method
        self._specs: list[SessionSpec] = []
        self._partition_plans: dict[str, PartitionPlan] = {}
        self._ran = False

    # -- admission ---------------------------------------------------------------

    def _next_label(self, query: SPJAQuery, label: str | None) -> str:
        index = len(self._specs)
        base = label or f"q{index}:{query.name}"
        taken = {spec.label for spec in self._specs} | set(self._partition_plans)
        session_label, suffix = base, index
        while session_label in taken:
            session_label = f"{base}#{suffix}"
            suffix += 1
        return session_label

    def _check_submittable(self, query: SPJAQuery) -> None:
        if self._ran:
            raise RuntimeError("this server has already run; build a new one")
        missing = [name for name in query.relations if name not in self.sources]
        if missing:
            raise KeyError(f"query references unregistered sources: {missing}")

    def submit(
        self,
        query: SPJAQuery,
        initial_tree: JoinTree | None = None,
        label: str | None = None,
    ) -> str:
        """Admit ``query``; returns its label, unique among this server's
        submissions.  Only records a spec — the session runs inside whichever
        shard the routing assigns it to.  ``initial_tree`` overrides the
        optimizer's initial plan choice, as in the solo corrective API."""
        self._check_submittable(query)
        session_label = self._next_label(query, label)
        self._specs.append(
            SessionSpec(
                index=len(self._specs),
                label=session_label,
                query=query,
                quantum_tuples=self.quantum_tuples,
                initial_tree=initial_tree,
            )
        )
        return session_label

    def _materialized_relations(self) -> dict[str, Relation]:
        relations: dict[str, Relation] = {}
        for name, source in self.sources.items():
            if isinstance(source, Relation):
                relations[name] = source
            elif isinstance(source, LocalSource):
                relations[name] = source.relation
        return relations

    def submit_partitioned(
        self,
        query: SPJAQuery,
        partitions: int,
        initial_tree: JoinTree | None = None,
        label: str | None = None,
    ) -> str:
        """Admit one heavy query partition-parallel: ``partitions`` fragment
        sessions over hash-partitioned join inputs, merged at the root when
        the run collects results.  Requires the chosen join edge's sources
        to be materialized local relations."""
        self._check_submittable(query)
        session_label = self._next_label(query, label)
        plan = build_partition_plan(
            session_label, query, self._materialized_relations(), partitions
        )
        for partition_index in range(partitions):
            self._specs.append(
                SessionSpec(
                    index=len(self._specs),
                    label=f"{session_label}[p{partition_index}]",
                    query=plan.fragment,
                    quantum_tuples=self.quantum_tuples,
                    initial_tree=initial_tree,
                    partition_of=session_label,
                    partition_index=partition_index,
                    source_overrides=plan.overrides[partition_index],
                )
            )
        self._partition_plans[session_label] = plan
        return session_label

    # -- execution ---------------------------------------------------------------

    def _build_tasks(self) -> list[ShardTask]:
        assignment = shard_assignment(len(self._specs), self.workers)
        shards: list[list[SessionSpec]] = [[] for _ in range(self.workers)]
        for spec, worker_id in zip(self._specs, assignment):
            shards[worker_id].append(spec)
        snapshot = (
            self.stats_cache.snapshot_state() if self.share_statistics else None
        )
        return [
            ShardTask(
                worker_id=worker_id,
                policy=self.policy,
                catalog=self.catalog,
                sources=self.sources,
                specs=tuple(specs),
                processor_options=self.options,
                snapshot=snapshot,
                share_statistics=self.share_statistics,
                cost_model=self.cost_model,
            )
            for worker_id, specs in enumerate(shards)
            if specs
        ]

    def _execute_tasks(self, tasks: list[ShardTask]) -> list[ShardResult]:
        if self.start_method == "inline":
            return [drive_shard(task) for task in tasks]
        ctx = multiprocessing.get_context(self.start_method)
        result_queue = ctx.Queue()
        # The task is the process argument: inherited under ``fork``, pickled
        # once by ``start()`` under ``spawn`` — never fed through a queue.
        pending = {
            task.worker_id: ctx.Process(
                target=worker_main, args=(task, result_queue), daemon=True
            )
            for task in tasks
        }
        processes = list(pending.values())
        started = 0
        results: list[ShardResult] = []
        try:
            # Inside the guard: if a later fork fails, the workers already
            # running are stopped below, not left blocked on their result.
            for process in processes:
                process.start()
                started += 1
            deadline = wall_now() + RESULT_TIMEOUT_SECONDS
            while pending:
                # A worker flushes its result before it exits, so whatever an
                # exited worker delivered is already readable: with one gone,
                # drain without blocking, and if the queue runs dry while its
                # result is still missing, it never sent one.
                gone = {
                    worker_id: process.exitcode
                    for worker_id, process in pending.items()
                    if process.exitcode is not None
                }
                try:
                    result = result_queue.get(
                        timeout=0.0 if gone else DEAD_WORKER_POLL_SECONDS
                    )
                except queue_module.Empty:
                    if gone:
                        raise RuntimeError(
                            "sharded run lost "
                            + ", ".join(
                                f"worker {worker_id} (exit code {code})"
                                for worker_id, code in sorted(gone.items())
                            )
                            + " before its shard result arrived"
                        ) from None
                    if wall_now() > deadline:
                        raise RuntimeError(
                            f"sharded run timed out: {len(results)} of "
                            f"{len(tasks)} shard results arrived within "
                            f"{RESULT_TIMEOUT_SECONDS:.0f}s"
                        ) from None
                    continue
                del pending[result.worker_id]
                results.append(result)
                deadline = wall_now() + RESULT_TIMEOUT_SECONDS
        finally:
            # Only a failing run leaves workers pending: nobody will read
            # what they still send, so do not wait for them to finish.  A
            # worker that never started needs neither call.
            live = processes[:started]
            for process in live:
                if process in pending.values():
                    process.terminate()
            for process in live:
                process.join(timeout=30.0)
                if process.is_alive():  # pragma: no cover - hang safety net
                    process.terminate()
                    process.join()
        for result in results:
            if result.error is not None:
                raise RuntimeError(
                    f"worker {result.worker_id} failed:\n{result.error}"
                )
        return results

    @collector_paused()
    def run(self) -> ServingReport:
        """Route specs to shards, execute them, fold statistics and results."""
        if self._ran:
            raise RuntimeError("this server has already run; build a new one")
        self._ran = True
        wall_start = wall_now()
        tasks = self._build_tasks()
        shard_results = sorted(
            self._execute_tasks(tasks), key=lambda result: result.worker_id
        )
        wall_seconds = wall_now() - wall_start

        # Fold worker learning in worker-id order — deterministic regardless
        # of which shard finished first on the wall clock.
        for shard in shard_results:
            if shard.snapshot is not None:
                self.stats_cache.absorb_snapshot(shard.snapshot)

        session_results = sorted(
            (result for shard in shard_results for result in shard.results),
            key=lambda result: result.index,
        )
        served: list[ServedQuery] = []
        fragments: dict[str, list[SessionResult]] = {}
        for result in session_results:
            if result.partition_of is not None:
                fragments.setdefault(result.partition_of, []).append(result)
                continue
            served.append(
                ServedQuery(
                    label=result.label,
                    query_name=result.query_name,
                    report=result.report,
                )
            )
        partitioned: list[PartitionedServedQuery] = []
        for label, plan in self._partition_plans.items():
            merged_rows, merged_schema = merge_partition_results(
                plan, fragments.get(label, [])
            )
            partitioned.append(
                PartitionedServedQuery(
                    label=label,
                    query_name=plan.query.name,
                    partitions=plan.partitions,
                    edge=str(plan.edge),
                    rows=merged_rows,
                    schema=merged_schema,
                    fragments=fragments.get(label, []),
                )
            )

        makespan = max(
            [query.latency for query in served]
            + [entry.simulated_seconds for entry in partitioned]
            + [0.0]
        )
        return ServingReport(
            policy=self.policy,
            batch_size=self.options.batch_size,
            quantum_tuples=self.quantum_tuples,
            served=served,
            makespan=makespan,
            workers=self.workers,
            start_method=self.start_method or "default",
            wall_seconds=wall_seconds,
            stats_cache_summary=dict(self.stats_cache.summary()),
            worker_summaries=[
                WorkerSummary(
                    worker_id=shard.worker_id,
                    sessions=len(shard.results),
                    shard_seconds=shard.shard_seconds,
                    wall_seconds=shard.wall_seconds,
                    busy_wall_seconds=shard.busy_wall_seconds,
                )
                for shard in shard_results
            ],
            partitioned=partitioned,
        )
