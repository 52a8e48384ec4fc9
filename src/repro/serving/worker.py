"""Worker-process side of the sharded serving tier.

A worker process is started with exactly one
:class:`~repro.serving.specs.ShardTask` as its argument (inherited under
``fork``, pickled once by ``Process.start`` under ``spawn``), drives the shard
to completion, and sends one :class:`~repro.serving.specs.ShardResult` back
over the result queue.  The
shard driver is deliberately a plain function (:func:`drive_shard`) so the
same code runs in-process for ``workers=1`` and for deterministic tests.

Determinism contract (the sharded differential suites pin all of it): a
session is a pure function of its spec and the run-start snapshot, so its
multiset, metrics, phase count and simulated seconds are bit-identical to a
solo run under every scheduling policy:

* it runs **blocking** on its own **private**
  :class:`~repro.engine.cost.SimulatedClock`, as solo execution does;
* it reads the catalog as it stood at activation: the snapshot's exact
  cardinalities are published once, before the first activation, and never
  again (the re-optimizer rebuilds its estimator from the catalog at every
  poll, so a later publication would leak one session's learning into
  another's plan choices);
* every session is activated in ``(admit_at, index)`` order before any
  runs, then the worker runs **one session at a time to completion** — the
  policy orders sessions, not quanta (results ship home together, so
  interleaving would buy nothing and cost cache locality);
* retired sessions are absorbed into the worker's private cache, whose
  post-run snapshot rides home in the :class:`ShardResult`; the front-end
  folds snapshots in worker-id order, independent of wall-clock races.

Partition fragments (``spec.partition_of`` set) read partition-local source
overrides and are excluded from statistics absorption: an exhausted
partition override proves nothing about the full relation's cardinality.
"""

from __future__ import annotations

import traceback
from typing import TYPE_CHECKING

from repro.core.corrective import CorrectiveQueryProcessor
from repro.engine.cost import CostModel, SimulatedClock
from repro.io.wallclock import wall_now
from repro.serving.scheduler import make_policy
from repro.serving.session import QuerySession
from repro.serving.specs import SessionResult, SessionSpec, ShardResult, ShardTask
from repro.serving.stats_cache import SharedStatisticsCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.queues import Queue as MPQueue


def _session_sources(task: ShardTask, spec: SessionSpec) -> dict[str, object]:
    """The source pool one session reads: the shard's, plus any
    partition-local overrides (overrides shadow, never mutate, the pool)."""
    if not spec.source_overrides:
        return task.sources
    merged: dict[str, object] = dict(task.sources)
    merged.update(spec.source_overrides)
    return merged


def drive_shard(task: ShardTask) -> ShardResult:
    """Run one shard's sessions to completion; pure function of the task."""
    wall_start = wall_now()
    busy_seconds = 0.0
    catalog = task.catalog.copy()
    cost_model = task.cost_model if task.cost_model is not None else CostModel()
    cache = SharedStatisticsCache()
    if task.snapshot is not None:
        cache.hydrate_state(task.snapshot)
    if task.share_statistics:
        # The catalog's only publication: sessions must not see each other.
        cache.apply_cardinalities(catalog)
    policy = make_policy(task.policy)
    specs_by_index = {spec.index: spec for spec in task.specs}
    sessions: list[QuerySession] = []
    for spec in sorted(task.specs, key=lambda item: item.index):
        processor = CorrectiveQueryProcessor(
            catalog,
            _session_sources(task, spec),
            cost_model,
            options=task.processor_options,
        )
        sessions.append(
            QuerySession(
                index=spec.index,
                label=spec.label,
                query=spec.query,
                processor=processor,
                catalog=catalog,
                admit_at=spec.admit_at,
                initial_tree=spec.initial_tree,
                quantum_tuples=spec.quantum_tuples,
                cooperative=False,
            )
        )

    # Activate in (admit_at, index) order.  On a private-clock shard,
    # admission time orders activations but gates nothing else.
    pending: list[QuerySession] = []
    for session in sorted(sessions, key=lambda item: (item.admit_at, item.index)):
        step_start = wall_now()
        seed = cache.seed_for(session.query) if task.share_statistics else None
        session.start(SimulatedClock(cost_model), seed)
        busy_seconds += wall_now() - step_start
        pending.append(session)

    # Ask the policy once per session, then grant that session quanta until
    # it finishes.  Blocking sessions are always ready (they wait on their own
    # clock, never on the scheduler), so the policy's ``now`` means nothing.
    quanta = 0
    while pending:
        session = policy.pick(pending, 0.0)
        pending.remove(session)
        step_start = wall_now()
        while session.state is QuerySession.ACTIVE:
            session.grant()
        busy_seconds += wall_now() - step_start
        quanta += session.quanta
        report = session.report
        assert report is not None
        if specs_by_index[session.index].partition_of is None:
            cache.absorb(report.details["observed_statistics"])

    collected: list[SessionResult] = []
    for session in sessions:
        report = session.report
        assert report is not None
        spec = specs_by_index[session.index]
        collected.append(
            SessionResult(
                index=session.index,
                label=session.label,
                query_name=session.query.name,
                worker_id=task.worker_id,
                admitted_at=session.admit_at,
                started_at=session.admit_at,
                finished_at=session.admit_at + report.simulated_seconds,
                quanta=session.quanta,
                report=report,
                partition_of=spec.partition_of,
                partition_index=spec.partition_index,
            )
        )
    results = tuple(collected)
    shard_seconds = sum(result.report.simulated_seconds for result in results)
    return ShardResult(
        worker_id=task.worker_id,
        results=results,
        snapshot=cache.snapshot_state() if task.share_statistics else None,
        quanta=quanta,
        shard_seconds=shard_seconds,
        wall_seconds=wall_now() - wall_start,
        busy_wall_seconds=busy_seconds,
    )


def worker_main(task: ShardTask, result_queue: "MPQueue[ShardResult]") -> None:
    """Process entry point: drive the task it was started with, send one
    result, exit.

    Any failure travels home as a :class:`ShardResult` carrying the formatted
    traceback — the front-end re-raises it — so a crashing shard fails the
    run loudly instead of hanging the result collection.
    """
    try:
        result = drive_shard(task)
    except BaseException:
        result = ShardResult(worker_id=task.worker_id, error=traceback.format_exc())
    result_queue.put(result)
    result_queue.close()
    # Flush the feeder thread before the process exits so the payload is
    # never truncated by a fast shutdown.
    result_queue.join_thread()
