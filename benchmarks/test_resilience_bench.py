"""Resilience-suite acceptance benchmark (record written under pytest's ``tmp_path``).

The tier-1 suite leaves tracked files alone; keep a record with
``repro.experiments.cli resilience-bench --bench-output FILE``.

Runs the ``resilience-bench`` matrix and asserts the PR's acceptance
criteria:

* **mirror failover** — on a three-way join whose remote source dies into a
  deep sustained trickle (healthy mirror registered), the failover-adaptive
  run re-points the cursor mid-stream, beats the static twin by at least
  1.3x simulated time in both engine modes, and returns the bit-identical
  result multiset;
* **admission backpressure** — deferring a collapsed-source session's
  activation improves the serving pool's p95 admission-to-completion
  latency, with every session's answers unchanged;
* **rate-aware initial plans** — a repeat query over a known-slow source
  starts on a gating tree (the slow source joins last) while the cold first
  run does not, again without changing answers.
"""

from __future__ import annotations

import json

from repro.experiments.resilience_bench import run_resilience_benchmark

SCALE_FACTOR = 0.003
SEED = 2004

BENCH_NAME = "BENCH_pr6.json"


def test_resilience_bench_acceptance_and_record(tmp_path):
    result = run_resilience_benchmark(scale_factor=SCALE_FACTOR, seed=SEED)
    (tmp_path / BENCH_NAME).write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )

    assert result["all_verified"], (
        "a resilient configuration changed answers against its baseline twin"
    )
    scenarios = result["scenarios"]

    failover = scenarios["failover"]["modes"]
    for engine_mode, mode in failover.items():
        context = f"failover/{engine_mode}"
        assert mode["failover_fired"], (
            f"{context}: the mirror-failover policy never re-pointed a cursor"
        )
        assert mode["speedup_simulated"] >= result["failover_speedup_bar"], (
            f"{context}: failover below the {result['failover_speedup_bar']}x "
            f"bar ({mode['speedup_simulated']}x)"
        )
    # The compiled engine is bit-identical to the interpreted batched engine.
    if "interpreted" in failover and "compiled" in failover:
        for side in ("static_seconds", "adaptive_seconds"):
            assert failover["compiled"][side] == failover["interpreted"][side], (
                f"failover: compiled {side} diverged from interpreted"
            )

    backpressure = scenarios["backpressure"]
    assert backpressure["deferred_sessions"], (
        "admission backpressure never deferred the collapsed-source session"
    )
    assert backpressure["p95_improved"], (
        f"backpressure did not improve p95: {backpressure['p95_on_seconds']}s "
        f"(on) vs {backpressure['p95_off_seconds']}s (off)"
    )

    rate_seeded = scenarios["rate_seeded"]
    assert not rate_seeded["cold_repeat_gated"], (
        "the cold repeat already started gated — the seeding comparison is vacuous"
    )
    assert rate_seeded["seeded_repeat_gated"], (
        "the seeded repeat query did not start on a gating tree"
    )
    assert rate_seeded["seeded_not_slower"], (
        "the gated start regressed the repeat query's latency"
    )
