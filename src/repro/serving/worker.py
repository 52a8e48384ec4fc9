"""Worker-process side of the sharded serving tier.

A worker process is started with exactly one
:class:`~repro.serving.specs.ShardTask` as its argument (inherited under
``fork``, pickled once by ``Process.start`` under ``spawn``), drives the shard
to completion, and sends one :class:`~repro.serving.specs.ShardResult` back
over the result queue.  The
shard driver is deliberately a plain function (:func:`drive_shard`) so the
same code runs in-process for ``start_method="inline"`` and for
deterministic tests.

Determinism contract (the sharded differential suites pin all of it): a
session is a pure function of its spec and the run-start snapshot, so its
multiset, metrics, phase count and simulated seconds are bit-identical to a
solo run:

* it is one plain :meth:`CorrectiveQueryProcessor.execute` call, on that
  call's own clock, as solo execution is;
* it reads the catalog as it stood at the start of the run: the snapshot's
  exact cardinalities are published once, before any session runs, and
  never again (the re-optimizer rebuilds its estimator from the catalog at
  every poll, so a later publication would leak one session's learning into
  another's plan choices);
* every session's seed statistics come from the hydrated snapshot, before
  any session runs; then the sessions run one at a time to completion, in
  admission order;
* finished sessions are absorbed into the worker's private cache in that
  order, and its post-run snapshot rides home in the :class:`ShardResult`;
  the front-end folds snapshots in worker-id order, independent of
  wall-clock races.

Partition fragments (``spec.partition_of`` set) read partition-local source
overrides and are excluded from statistics absorption: an exhausted
partition override proves nothing about the full relation's cardinality.
"""

from __future__ import annotations

import traceback
from typing import TYPE_CHECKING

from repro.core.corrective import CorrectiveExecutionReport, CorrectiveQueryProcessor
from repro.engine.collector import collector_paused
from repro.engine.cost import CostModel
from repro.io.wallclock import wall_now
from repro.serving.scheduler import check_policy
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


@collector_paused()
def drive_shard(task: ShardTask) -> ShardResult:
    """Run one shard's sessions to completion; pure function of the task."""
    check_policy(task.policy)
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
    specs = sorted(task.specs, key=lambda spec: spec.index)
    # Every seed comes from the run-start snapshot, before any absorption.
    seeds = {
        spec.index: cache.seed_for(spec.query) if task.share_statistics else None
        for spec in specs
    }
    reports: dict[int, CorrectiveExecutionReport] = {}
    for spec in specs:
        step_start = wall_now()
        processor = CorrectiveQueryProcessor(
            catalog,
            _session_sources(task, spec),
            cost_model,
            options=task.processor_options,
        )
        report = processor.execute(
            spec.query,
            initial_tree=spec.initial_tree,
            poll_step_limit=spec.quantum_tuples,
            seed_statistics=seeds[spec.index],
        )
        busy_seconds += wall_now() - step_start
        reports[spec.index] = report
        if spec.partition_of is None:
            cache.absorb(report.details["observed_statistics"])

    results = tuple(
        SessionResult(
            index=spec.index,
            label=spec.label,
            query_name=spec.query.name,
            worker_id=task.worker_id,
            report=reports[spec.index],
            partition_of=spec.partition_of,
            partition_index=spec.partition_index,
        )
        for spec in specs
    )
    # a left fold: float ``sum()`` is compensated from Python 3.12 on
    shard_seconds: float = 0
    for result in results:
        shard_seconds += result.report.simulated_seconds
    return ShardResult(
        worker_id=task.worker_id,
        results=results,
        snapshot=cache.snapshot_state() if task.share_statistics else None,
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
