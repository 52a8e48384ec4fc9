"""Sharded-serving scaling benchmark.

Runs the same 8-query mix through :class:`~repro.serving.sharded.
ShardedQueryServer` at 1, 2 and 4 worker processes and records the scaling
curve — wall-clock throughput (the number the extra processes actually
move), simulated p50/p95 latency, per-worker utilization and an
answers-verified flag — under pytest's ``tmp_path`` (the tier-1 suite leaves
tracked files alone; keep a record with
``repro.experiments.cli serve-bench --workers 1 2 4 --bench-output FILE``).

Assertions:

* every worker count's result multisets are identical to solo corrective
  execution (verified inside ``run_sharded_serving_benchmark``);
* the simulated latency statistics are bit-identical at every worker
  count — sharding changes wall-clock, never simulated accounting;
* the acceptance scaling gate (4-worker wall throughput >= 2.5x 1-worker)
  passes wherever it is applicable.  The gate self-reports not-applicable
  on hosts without >= 4 CPUs — there is no parallel speedup to be had on
  one core, and a wall-clock assertion there would only measure process
  startup overhead.
"""

from __future__ import annotations

import json

from repro.experiments.common import DEFAULT_BATCH_SIZE
from repro.experiments.serving_bench import run_sharded_serving_benchmark

SCALE_FACTOR = 0.002
SEED = 2004
NUM_QUERIES = 8
WORKER_COUNTS = (1, 2, 4)

BENCH_NAME = "BENCH_pr10.json"


def test_shard_bench_scaling_curve(tmp_path):
    result = run_sharded_serving_benchmark(
        scale_factor=SCALE_FACTOR,
        seed=SEED,
        num_queries=NUM_QUERIES,
        batch_size=DEFAULT_BATCH_SIZE,
        workers=WORKER_COUNTS,
        verify=True,
    )

    assert result["worker_counts"] == sorted(WORKER_COUNTS)
    sweep = result["workers"]
    for count in WORKER_COUNTS:
        stats = sweep[str(count)]
        assert stats["queries"] == NUM_QUERIES, count
        assert stats["verified_vs_solo"], (
            f"{count} workers: served result multisets diverged from solo "
            f"execution for {stats['mismatched_queries']}"
        )
        assert stats["wall_qps"] > 0, count
        assert len(stats["worker_summaries"]) == count
        assert len(stats["utilization"]) == count
        assert all(0.0 <= value <= 1.0 for value in stats["utilization"].values())

    # Determinism across the sweep: simulated accounting is a pure function
    # of the workload, not of how many processes served it.
    for key in ("p50_latency_seconds", "p95_latency_seconds", "makespan_seconds",
                "total_quanta"):
        values = {sweep[str(count)][key] for count in WORKER_COUNTS}
        assert len(values) == 1, (key, values)

    gate = result["scaling_gate"]
    assert gate["threshold"] == 2.5
    if gate["applicable"]:
        assert gate["passed"], (
            f"scaling gate FAILED: 4-vs-1-worker speedup "
            f"{gate['speedup_4v1']}x < {gate['threshold']}x "
            f"on a {gate['cpu_count']}-CPU host"
        )
    else:
        assert gate["passed"] is None
        assert "not applicable" in gate["reason"]

    (tmp_path / BENCH_NAME).write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
