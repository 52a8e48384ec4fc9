"""Compiled-pipeline rehydration across a real process boundary.

Compiled chains are ``exec``-generated functions — code objects, which must
never cross a process boundary (the shard-safety picklability audit rejects
them).  The sharded tier's contract is therefore *rehydration*: sessions
travel as picklable specs, and a worker process rebuilds every compiled
pipeline from generated source (``__compiled_source__``) plus its own
runtime bindings.  These tests pin the three legs of that contract:

* :func:`~repro.engine.compiled.bind_generated` materializes a chain from
  source + bindings, and stamps the source back onto the function;
* identical plan shapes generate bit-identical source — in one process and
  across a **spawn** boundary (fresh interpreter, nothing shared);
* a session spec pickled to a spawn worker produces bit-identical batches
  and charges: result multiset, every work counter, simulated seconds and
  phase counts equal the parent's solo run.
"""

from __future__ import annotations

import pickle
from collections import Counter
from multiprocessing import get_context

from differential import (
    POLL_STEP_LIMIT,
    POLLING_INTERVAL,
    bad_initial_tree,
    run_corrective,
)

from repro.core.options import ProcessorOptions
from repro.engine.compiled import bind_generated
from repro.engine.pipelined import PipelinedExecutor
from repro.optimizer.plans import JoinTree
from repro.serving.specs import SessionSpec, ShardTask
from repro.serving.worker import drive_shard
from workload_generator import generate_workload

BATCH_SIZE = 64


def test_bind_chain_rebuilds_from_source():
    """The rehydration primitive: source + bindings → working chain, with
    the source stamped back for the next hop."""
    out: list[int] = []
    src = "def _chain(rows):\n    _extend(rows)\n"
    chain = bind_generated(src, {"_extend": out.extend})
    chain([1, 2, 3])
    assert out == [1, 2, 3]
    assert chain.__compiled_source__ == src


def test_identical_plan_shapes_generate_identical_source():
    """Recompiling the same query/tree yields byte-identical chain source —
    the property that lets workers regenerate pipelines instead of
    receiving code objects."""
    workload = generate_workload(22)  # local multi-join, 49 result rows
    tree = JoinTree.left_deep(workload.query.relations)
    sources_by_run = []
    for _ in range(2):
        rows, plan = PipelinedExecutor(
            workload.sources(), batch_size=BATCH_SIZE, engine_mode="compiled"
        ).execute(workload.query, tree)
        assert rows
        chains = plan._compiled_chains
        assert chains, "compiled run never built its chains"
        sources_by_run.append(
            {leaf: fn.__compiled_source__ for leaf, fn in chains.items()}
        )
    assert sources_by_run[0] == sources_by_run[1]


def _spawn_probe(payload: bytes, result_queue) -> None:
    """Runs in a spawn child: rehydrate the pickled shard task, drive it,
    and also compile the raw pipeline to report its generated source."""
    task, query, relations, tree = pickle.loads(payload)
    shard = drive_shard(task)
    report = shard.results[0].report
    rows, plan = PipelinedExecutor(
        relations, batch_size=BATCH_SIZE, engine_mode="compiled"
    ).execute(query, tree)
    chains = plan._compiled_chains or {}
    result_queue.put(
        pickle.dumps(
            {
                "error": shard.error,
                "report_rows": report.rows,
                "report_schema": report.schema.names,
                "metrics": report.metrics.as_dict(),
                "simulated_seconds": report.simulated_seconds,
                "phases": report.num_phases,
                "pipeline_rows": rows,
                "chain_sources": {
                    leaf: fn.__compiled_source__ for leaf, fn in chains.items()
                },
            }
        )
    )
    result_queue.close()
    result_queue.join_thread()


def test_session_spec_rehydrates_across_spawn_boundary():
    """Pickle a compiled-engine session spec to a spawn worker (fresh
    interpreter, nothing inherited) and pin bit-identical batches and
    charges — plus byte-identical generated chain source on both sides."""
    workload = generate_workload(22)
    query = workload.query
    tree = JoinTree.left_deep(query.relations)
    task = ShardTask(
        worker_id=0,
        policy="round_robin",
        catalog=workload.catalog(),
        sources=workload.sources(),
        specs=(
            SessionSpec(
                index=0,
                label=query.name,
                query=query,
                quantum_tuples=POLL_STEP_LIMIT,
                initial_tree=bad_initial_tree(workload),
            ),
        ),
        processor_options=ProcessorOptions(
            polling_interval_seconds=POLLING_INTERVAL,
            batch_size=BATCH_SIZE,
            engine_mode="compiled",
        ),
    )

    ctx = get_context("spawn")
    result_queue = ctx.Queue()
    payload = pickle.dumps((task, query, workload.sources(), tree))
    process = ctx.Process(target=_spawn_probe, args=(payload, result_queue))
    process.start()
    try:
        child = pickle.loads(result_queue.get(timeout=120))
    finally:
        process.join(timeout=30)
    assert child["error"] is None

    # The parent's solo run with identical parameters.
    solo_report = run_corrective(
        workload,
        workload.catalog(),
        workload.sources(),
        engine_mode="compiled",
        batch_size=BATCH_SIZE,
    )
    assert Counter(child["report_rows"]) == Counter(solo_report.rows)
    assert child["report_schema"] == solo_report.schema.names
    assert child["metrics"] == solo_report.metrics.as_dict()
    assert child["simulated_seconds"] == solo_report.simulated_seconds
    assert child["phases"] == solo_report.num_phases

    # The parent's raw compiled pipeline on the same tree: the child's
    # regenerated source must be byte-identical, leaf for leaf.
    parent_rows, parent_plan = PipelinedExecutor(
        workload.sources(), batch_size=BATCH_SIZE, engine_mode="compiled"
    ).execute(query, tree)
    parent_sources = {
        leaf: fn.__compiled_source__
        for leaf, fn in (parent_plan._compiled_chains or {}).items()
    }
    assert parent_sources and child["chain_sources"] == parent_sources
    assert Counter(child["pipeline_rows"]) == Counter(parent_rows)
