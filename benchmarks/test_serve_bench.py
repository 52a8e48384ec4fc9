"""Serving-layer throughput benchmark.

Admits 8 concurrent instances of the paper's evaluation queries (Q3A, Q10A,
Q5 cycled) to the :class:`~repro.serving.server.QueryServer` under both
scheduling policies and records throughput (queries per simulated second)
and p50/p95 simulated latency under pytest's ``tmp_path`` (the tier-1 suite
leaves tracked files alone; keep a record with
``repro.experiments.cli serve-bench --bench-output FILE``).

Assertions:

* every served query's result multiset is identical to its solo corrective
  execution (the serving layer's correctness bar — verified inside
  ``run_serving_benchmark``);
* both policies complete all 8 queries, with sane latency statistics;
* shortest-remaining-cost achieves p50 latency no worse than round-robin on
  this workload — the point of an SRPT-style discipline.  (Determinism: the
  simulated numbers are a pure function of scale/seed, so this is a stable
  pin, not a flaky timing assertion.)
"""

from __future__ import annotations

import json

from repro.experiments.common import DEFAULT_BATCH_SIZE
from repro.experiments.serving_bench import run_serving_benchmark

SCALE_FACTOR = 0.002
SEED = 2004
NUM_QUERIES = 8

BENCH_NAME = "BENCH_pr2.json"


def test_serve_bench_throughput_and_latency(tmp_path):
    result = run_serving_benchmark(
        scale_factor=SCALE_FACTOR,
        seed=SEED,
        num_queries=NUM_QUERIES,
        batch_size=DEFAULT_BATCH_SIZE,
        verify=True,
    )

    policies = result["policies"]
    assert set(policies) == {"round_robin", "shortest_remaining_cost"}
    for policy, stats in policies.items():
        assert stats["queries"] == NUM_QUERIES, policy
        assert stats["verified_vs_solo"], (
            f"{policy}: served result multisets diverged from solo execution "
            f"for {stats['mismatched_queries']}"
        )
        assert stats["throughput_qps"] > 0, policy
        assert 0 < stats["p50_latency_seconds"] <= stats["p95_latency_seconds"], policy
        assert stats["p95_latency_seconds"] <= stats["makespan_seconds"], policy
        assert len(stats["per_query"]) == NUM_QUERIES

    round_robin = policies["round_robin"]
    shortest = policies["shortest_remaining_cost"]
    assert (
        shortest["p50_latency_seconds"] <= round_robin["p50_latency_seconds"]
    ), "shortest-remaining-cost should not lose on median latency"

    (tmp_path / BENCH_NAME).write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
