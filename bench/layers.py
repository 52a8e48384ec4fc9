"""Micro-operations of the traced run: one layer at a time, driven through
its public entry point on small fixed inputs.

Every probe names the metrics it yields.  A probe whose target no longer
imports (a later change deleted or renamed it) yields ``None`` for its
metrics instead of failing the run.  Timings are medians of a few repeats;
inputs come from the run's seed, at scale factors small enough that all
probes together take seconds.
"""

from __future__ import annotations

import os
import pickle
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Callable

#: data size of the micro-operations (lineitem ≈ 24 k rows)
PROBE_SCALE_FACTOR = 0.004
#: the shared-clock server is measured smaller: its cost grows faster than
#: linearly in sessions, which is the thing ``round16_over_round8`` shows
SHARED_SERVER_SCALE_FACTOR = 0.002
REPEATS = 3

Probe = Callable[["ProbeContext"], dict[str, Any]]
_PROBES: list[tuple[tuple[str, ...], Probe]] = []


def probe(*metric_names: str) -> Callable[[Probe], Probe]:
    def register(function: Probe) -> Probe:
        _PROBES.append((metric_names, function))
        return function

    return register


def median_seconds(function: Callable[[], Any], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        function()
        samples.append(perf_counter() - started)
    return statistics.median(samples)


class ProbeContext:
    """Inputs shared by the probes: two small datasets and a scratch dir."""

    def __init__(self, seed: int, workdir: str, runner: str) -> None:
        from repro.experiments.common import build_dataset

        self.seed = seed
        self.workdir = workdir
        #: path of ``bench/run.py``, for probes that need a fresh process
        self.runner = runner
        self.dataset = build_dataset("uniform", PROBE_SCALE_FACTOR, 0.0, seed)
        self.small = build_dataset("uniform", SHARED_SERVER_SCALE_FACTOR, 0.0, seed)

    @property
    def lineitem(self) -> Any:
        return self.dataset.sources["lineitem"]


def run_probes(context: ProbeContext) -> dict[str, float | None]:
    results: dict[str, float | None] = {}
    for names, function in _PROBES:
        try:
            results.update(function(context))
        except (ImportError, AttributeError) as error:
            print(f"probe {function.__name__} skipped: {error!r}", file=sys.stderr)
            results.update({name: None for name in names})
    return results


# -- sources ----------------------------------------------------------------------


def _drain_stream(source: Any) -> int:
    count = 0
    for _row, _arrival in source.open_stream():
        count += 1
    return count


@probe("sources.local.rows_per_s", "sources.remote.rows_per_s")
def sources_probe(context: ProbeContext) -> dict[str, float]:
    from repro.experiments.common import wireless_network_for
    from repro.sources.remote import RemoteSource
    from repro.sources.source import LocalSource

    rows = len(context.lineitem.rows)
    local = LocalSource(context.lineitem)
    remote = RemoteSource(context.lineitem, wireless_network_for(0, context.seed))
    return {
        "sources.local.rows_per_s": rows / median_seconds(lambda: _drain_stream(local)),
        "sources.remote.rows_per_s": rows
        / median_seconds(lambda: _drain_stream(remote)),
    }


# -- io ---------------------------------------------------------------------------


def _drain_transport(transport: Any) -> int:
    reader = transport.open(0)
    count = 0
    try:
        while True:
            chunk = reader.read_rows(64)
            if not chunk:
                return count
            count += len(chunk)
    finally:
        reader.close()


@probe(
    "io.csv.rows_per_s",
    "io.jsonl.rows_per_s",
    "io.sqlite.rows_per_s",
    "io.http.rows_per_s",
    "io.envelope.quiet_rows_per_s",
    "io.envelope.faulted_rows_per_s",
)
def io_probe(context: ProbeContext) -> dict[str, float]:
    import sqlite3

    from repro.io import (
        CSVFileTransport,
        DBAPITransport,
        FaultPlan,
        HTTPTransport,
        InjectedTransport,
        JSONLinesTransport,
        ResilientSource,
        SimulatedTimeline,
        write_csv,
        write_jsonl,
        write_sqlite,
    )

    from bench.fixture import FixtureProcess
    from bench.workloads import fault_plan

    relation = context.lineitem
    rows = len(relation.rows)
    name, schema = relation.name, relation.schema
    csv_path = os.path.join(context.workdir, "probe.csv")
    jsonl_path = os.path.join(context.workdir, "probe.jsonl")
    db_path = os.path.join(context.workdir, "probe.db")
    write_csv(csv_path, relation)
    write_jsonl(jsonl_path, relation)
    sql = write_sqlite(db_path, relation)
    transports = {
        "csv": CSVFileTransport(name, csv_path, schema),
        "jsonl": JSONLinesTransport(name, jsonl_path, schema),
        "sqlite": DBAPITransport(name, lambda: sqlite3.connect(db_path), sql, schema),
    }
    results = {
        f"io.{kind}.rows_per_s": rows
        / median_seconds(lambda t=transport: _drain_transport(t))
        for kind, transport in transports.items()
    }

    fixture = FixtureProcess({name: relation}, {name: FaultPlan.quiet()})
    try:
        http = HTTPTransport(name, fixture.urls[name], schema)
        results["io.http.rows_per_s"] = rows / median_seconds(
            lambda: _drain_transport(http)
        )
    finally:
        fixture.close()

    def drain_envelope(plan: Any) -> None:
        timeline = SimulatedTimeline()
        transport = InjectedTransport(transports["csv"], plan, stall=timeline.sleep)
        delivered = _drain_stream(ResilientSource(transport, timeline=timeline))
        if delivered != rows:
            raise RuntimeError(f"envelope delivered {delivered} of {rows} rows")

    faulted = fault_plan(context.seed, 0, rows)
    results["io.envelope.quiet_rows_per_s"] = rows / median_seconds(
        lambda: drain_envelope(FaultPlan.quiet())
    )
    results["io.envelope.faulted_rows_per_s"] = rows / median_seconds(
        lambda: drain_envelope(faulted)
    )
    return results


# -- engine and optimizer -----------------------------------------------------------


@probe(
    "engine.tuple.static_tuples_per_s",
    "engine.batched1.static_tuples_per_s",
    "engine.batched64.static_tuples_per_s",
    "engine.compiled64.static_tuples_per_s",
    "optimizer.optimize_tree_s",
)
def engine_probe(context: ProbeContext) -> dict[str, float]:
    from repro.engine.cost import CostModel
    from repro.engine.pipelined import PipelinedExecutor
    from repro.optimizer.enumerator import Optimizer

    from bench.workloads import QUERY_MAKERS

    dataset = context.dataset
    queries = [make() for make in QUERY_MAKERS]
    optimizer = Optimizer(dataset.catalog_no_statistics, CostModel())
    trees = [optimizer.optimize_tree(query) for query in queries]
    results = {
        "optimizer.optimize_tree_s": median_seconds(
            lambda: [optimizer.optimize_tree(query) for query in queries], repeats=5
        )
    }
    modes = {
        "tuple": (None, "interpreted"),
        "batched1": (1, "interpreted"),
        "batched64": (64, "interpreted"),
        "compiled64": (64, "compiled"),
    }
    for label, (batch_size, engine_mode) in modes.items():
        tuples_read = 0

        def run_all() -> None:
            nonlocal tuples_read
            tuples_read = 0
            for query, tree in zip(queries, trees):
                _rows, plan = PipelinedExecutor(
                    dataset.sources, batch_size=batch_size, engine_mode=engine_mode
                ).execute(query, tree)
                tuples_read += plan.metrics.tuples_read

        seconds = median_seconds(run_all)
        results[f"engine.{label}.static_tuples_per_s"] = tuples_read / seconds
    return results


@probe("engine.compiled.cold_first_query_s", "engine.batched64.cold_first_query_s")
def cold_probe(context: ProbeContext) -> dict[str, float]:
    """First query of a fresh interpreter, per engine mode: what a user who
    runs one query pays for lazy imports, code generation and ``exec``."""
    results = {}
    for label, mode in (("compiled", "compiled"), ("batched64", "interpreted")):
        done = subprocess.run(
            [sys.executable, context.runner, "--cold-first-query", mode,
             "--seed", str(context.seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        results[f"engine.{label}.cold_first_query_s"] = float(
            done.stdout.strip().splitlines()[-1]
        )
    return results


def cold_first_query(engine_mode: str, seed: int) -> float:
    """Body of ``--cold-first-query``: data generation is not timed, the
    first ``execute`` of the process is."""
    from repro.core.corrective import CorrectiveQueryProcessor
    from repro.experiments.common import build_dataset
    from repro.workloads.queries import query_3a

    dataset = build_dataset("uniform", PROBE_SCALE_FACTOR, 0.0, seed)
    query = query_3a()
    started = perf_counter()
    CorrectiveQueryProcessor(
        dataset.catalog_no_statistics.copy(),
        dataset.sources,
        polling_interval_seconds=0.25,
        batch_size=64,
        engine_mode=engine_mode,
    ).execute(query)
    return perf_counter() - started


# -- serving ----------------------------------------------------------------------


def _sharded_round(dataset: Any, **server_options: Any) -> Any:
    from repro.serving.sharded import ShardedQueryServer

    from bench.workloads import (
        BATCH_SIZE,
        POLLING_INTERVAL_S,
        QUANTUM_TUPLES,
        QUERY_MAKERS,
        ServeSharded,
    )

    server = ShardedQueryServer(
        dataset.catalog_no_statistics,
        dataset.sources,
        engine_mode="compiled",
        batch_size=BATCH_SIZE,
        quantum_tuples=QUANTUM_TUPLES,
        polling_interval_seconds=POLLING_INTERVAL_S,
        **server_options,
    )
    queries = [make() for make in QUERY_MAKERS]
    for index in range(ServeSharded.sessions):
        server.submit(queries[index % len(queries)])
    server.submit_partitioned(queries[0], ServeSharded.partitions)
    return server, server.run()


@probe(
    "serving.sharded.inline_round_s",
    "serving.sharded.w1_round_s",
    "serving.partition.build_plan_s",
    "serving.partition.merge_self_s",
    "serving.stats_cache.snapshot_s",
    "serving.stats_cache.absorb_s",
    "serving.stats_store.roundtrip_s",
)
def sharded_probe(context: ProbeContext) -> dict[str, Any]:
    """The ``serve_sharded`` round with the transport taken away (inline: no
    process at all; w1: one worker process), and its front-end pieces alone."""
    from repro.serving.partition import build_partition_plan, merge_partition_results
    from repro.serving.stats_cache import SharedStatisticsCache
    from repro.serving.stats_store import SharedStatisticsStore

    from bench.workloads import QUERY_MAKERS, ServeSharded

    dataset = context.dataset
    results = {
        "serving.sharded.inline_round_s": median_seconds(
            lambda: _sharded_round(dataset, workers=2, start_method="inline")
        ),
        "serving.sharded.w1_round_s": median_seconds(
            lambda: _sharded_round(dataset, workers=1)
        ),
    }

    server, report = _sharded_round(dataset, workers=2, start_method="inline")
    query = QUERY_MAKERS[0]()
    relations = dict(dataset.sources)
    results["serving.partition.build_plan_s"] = median_seconds(
        lambda: build_partition_plan("probe", query, relations, ServeSharded.partitions)
    )
    plan = build_partition_plan("probe", query, relations, ServeSharded.partitions)
    fragments = report.partitioned[0].fragments
    results["serving.partition.merge_self_s"] = median_seconds(
        lambda: merge_partition_results(plan, fragments)
    )

    cache = server.stats_cache
    snapshot = cache.snapshot_state()
    results["serving.stats_cache.snapshot_s"] = median_seconds(
        cache.snapshot_state, repeats=25
    )
    results["serving.stats_cache.absorb_s"] = median_seconds(
        lambda: SharedStatisticsCache().absorb_snapshot(snapshot), repeats=25
    )

    def roundtrip(store: Any) -> None:
        store.absorb_snapshot(snapshot)
        store.snapshot_state()

    try:
        store = SharedStatisticsStore()
    except OSError as error:
        # The manager listens on a unix socket under the work directory; a
        # checkout path too long for one leaves this metric without a value.
        print(f"stats store did not start: {error!r}", file=sys.stderr)
        results["serving.stats_store.roundtrip_s"] = None
        return results
    with store:
        results["serving.stats_store.roundtrip_s"] = median_seconds(
            lambda: roundtrip(store), repeats=9
        )
    return results


@probe(
    "serving.pickle.task_bytes",
    "serving.pickle.result_bytes",
    "serving.pickle.task_dumps_s",
    "serving.pickle.result_loads_s",
)
def pickle_probe(context: ProbeContext) -> dict[str, float]:
    """What crosses the process boundary for one worker of ``serve_sharded``:
    the task out (catalog, every relation, the specs), the results back."""
    from repro.serving.server import corrective_processor_options
    from repro.serving.specs import SessionSpec, ShardTask
    from repro.serving.worker import drive_shard

    from bench.workloads import (
        BATCH_SIZE,
        POLLING_INTERVAL_S,
        QUANTUM_TUPLES,
        QUERY_MAKERS,
        ServeSharded,
    )

    dataset = context.dataset
    queries = [make() for make in QUERY_MAKERS]
    per_worker = ServeSharded.sessions // ServeSharded.workers
    task = ShardTask(
        worker_id=0,
        policy="round_robin",
        catalog=dataset.catalog_no_statistics.copy(),
        sources=dict(dataset.sources),
        specs=tuple(
            SessionSpec(
                index=index,
                label=f"q{index}",
                query=queries[index % len(queries)],
                quantum_tuples=QUANTUM_TUPLES,
            )
            for index in range(per_worker)
        ),
        processor_options=corrective_processor_options(
            polling_interval_seconds=POLLING_INTERVAL_S,
            batch_size=BATCH_SIZE,
            engine_mode="compiled",
        ),
    )
    task_payload = pickle.dumps(task)
    result_payload = pickle.dumps(drive_shard(task))
    return {
        "serving.pickle.task_bytes": float(len(task_payload)),
        "serving.pickle.result_bytes": float(len(result_payload)),
        "serving.pickle.task_dumps_s": median_seconds(lambda: pickle.dumps(task)),
        # Only bytes this process wrote a moment ago are unpickled.
        "serving.pickle.result_loads_s": median_seconds(
            lambda: pickle.loads(result_payload)
        ),
    }


@probe("serving.shared.round_s", "serving.shared.round16_over_round8")
def shared_server_probe(context: ProbeContext) -> dict[str, float]:
    """The shared-clock ``QueryServer``: one 12-session round, and how a
    round's cost grows when the session count doubles."""
    from repro.serving.server import QueryServer

    from bench.workloads import (
        BATCH_SIZE,
        POLLING_INTERVAL_S,
        QUANTUM_TUPLES,
        QUERY_MAKERS,
    )

    dataset = context.small
    queries = [make() for make in QUERY_MAKERS]

    def serve(sessions: int) -> None:
        server = QueryServer(
            dataset.catalog_no_statistics,
            dataset.sources,
            batch_size=BATCH_SIZE,
            quantum_tuples=QUANTUM_TUPLES,
            polling_interval_seconds=POLLING_INTERVAL_S,
        )
        for index in range(sessions):
            server.submit(queries[index % len(queries)])
        server.run()

    return {
        "serving.shared.round_s": median_seconds(lambda: serve(12)),
        # One pass each: the ratio is far from 1, and 16 sessions are slow.
        "serving.shared.round16_over_round8": median_seconds(
            lambda: serve(16), repeats=1
        )
        / median_seconds(lambda: serve(8), repeats=1),
    }
