"""The benchmark's metric names, units and bounds — the single list that
``BENCHMARK.json``, the runner's output and ``bench.compare`` agree on."""

from __future__ import annotations

#: ``(name, unit, better, bound)``; the bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: Each is about three times the widest spread (quartile distance / median
#: of ten runs with ten seeds) measured for the metric on the 2-CPU
#: reference host, see ``bench/README.md``; 0.25 is the most a bound may be.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("round_wall_p50_s", "s", "lower", 0.20),
    ("round_wall_p75_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.20),
    ("source_tuples_per_s", "1/s", "higher", 0.20),
    ("cpu_s_per_query", "s", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("sim_s_per_query", "s", "lower", 0.15),
)

#: layers are the ``src/repro`` packages on the measured path
LAYERS = ("sources", "io", "engine", "optimizer", "core", "adaptivity", "serving")

#: ``(name, unit, better)``; per-layer metrics have no bound
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("workloads.generate_s", "s", "lower"),
    ("sources.local.rows_per_s", "1/s", "higher"),
    ("sources.remote.rows_per_s", "1/s", "higher"),
    ("io.csv.rows_per_s", "1/s", "higher"),
    ("io.jsonl.rows_per_s", "1/s", "higher"),
    ("io.sqlite.rows_per_s", "1/s", "higher"),
    ("io.http.rows_per_s", "1/s", "higher"),
    ("io.envelope.quiet_rows_per_s", "1/s", "higher"),
    ("io.envelope.faulted_rows_per_s", "1/s", "higher"),
    ("io.read_self_s", "s", "lower"),
    ("io.envelope.connects", "count", "lower"),
    ("io.envelope.connect_retries", "count", "lower"),
    ("io.envelope.read_faults", "count", "lower"),
    ("io.envelope.resumes", "count", "lower"),
    ("io.envelope.rows_delivered", "count", "higher"),
    ("io.envelope.backoff_sim_s", "s", "lower"),
    ("io.envelope.refetch_ratio", "ratio", "lower"),
    ("engine.run_self_s", "s", "lower"),
    ("engine.tuple.static_tuples_per_s", "1/s", "higher"),
    ("engine.batched1.static_tuples_per_s", "1/s", "higher"),
    ("engine.batched64.static_tuples_per_s", "1/s", "higher"),
    ("engine.compiled64.static_tuples_per_s", "1/s", "higher"),
    ("engine.compiled.codegen_self_s", "s", "lower"),
    ("engine.compiled.chains_compiled", "count", "lower"),
    ("engine.compiled.cold_first_query_s", "s", "lower"),
    ("engine.batched64.cold_first_query_s", "s", "lower"),
    ("engine.work_units_per_query", "count", "lower"),
    ("engine.peak_state_tuples", "count", "lower"),
    ("optimizer.optimize_tree_s", "s", "lower"),
    ("optimizer.reopt_evaluate_self_s", "s", "lower"),
    ("optimizer.reopt_evaluations", "count", "lower"),
    ("core.corrective_self_s", "s", "lower"),
    ("core.monitor_observe_self_s", "s", "lower"),
    ("core.monitor_polls", "count", "lower"),
    ("core.stitchup_self_s", "s", "lower"),
    ("core.stitchup_reused_tuples", "count", "higher"),
    ("core.stitchup_discarded_tuples", "count", "lower"),
    ("core.phases_per_query", "count", "lower"),
    ("adaptivity.poll_self_s", "s", "lower"),
    ("adaptivity.actions_fired", "count", "lower"),
    ("serving.sharded.frontend_overhead_s", "s", "lower"),
    ("serving.sharded.worker_busy_ratio", "ratio", "higher"),
    ("serving.sharded.worker_skew", "ratio", "lower"),
    ("serving.sharded.inline_round_s", "s", "lower"),
    ("serving.sharded.w1_round_s", "s", "lower"),
    ("serving.partition.build_plan_s", "s", "lower"),
    ("serving.partition.merge_self_s", "s", "lower"),
    ("serving.stats_cache.snapshot_s", "s", "lower"),
    ("serving.stats_cache.absorb_s", "s", "lower"),
    ("serving.stats_store.roundtrip_s", "s", "lower"),
    ("serving.pickle.task_bytes", "B", "lower"),
    ("serving.pickle.result_bytes", "B", "lower"),
    ("serving.pickle.task_dumps_s", "s", "lower"),
    ("serving.pickle.result_loads_s", "s", "lower"),
    ("serving.shared.round_s", "s", "lower"),
    ("serving.shared.round16_over_round8", "ratio", "lower"),
    *((f"share.{layer}", "ratio", "lower") for layer in LAYERS),
    ("share.workers", "ratio", "lower"),
    ("share.untraced", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("host.calib_before_s", "s", "lower"),
    ("host.calib_after_s", "s", "lower"),
)

UNITS: dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
