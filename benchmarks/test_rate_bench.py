"""Source-rate adaptivity acceptance benchmark (record written under pytest's ``tmp_path``).

The tier-1 suite leaves tracked files alone; keep a record with
``repro.experiments.cli rate-bench --bench-output FILE``.

Runs the ``rate-bench`` matrix (slow / bursty / flaky remote-source
deliveries, static vs ``rate_adaptive=True`` corrective processing,
interpreted and compiled engines) and asserts the PR's acceptance criteria:

* every rate-adaptive run's result multiset is identical to its static twin
  (rate adaptivity never changes answers);
* on the slow and bursty workloads the source-rate policy fires (collapse
  detected, plan switched to gate work behind the stalled source) and wins
  by at least 1.3x simulated time, in **both** engine modes;
* on the flaky workload — where the outage only becomes observable after a
  healthy start has let substantial local state accumulate — the policy's
  stitch-up-aware model declines to switch, so the run matches static
  instead of regressing.
"""

from __future__ import annotations

import json

from repro.experiments.rate_bench import run_rate_benchmark

SCALE_FACTOR = 0.003
SEED = 2004

BENCH_NAME = "BENCH_pr5.json"


def test_rate_bench_acceptance_and_record(tmp_path):
    result = run_rate_benchmark(scale_factor=SCALE_FACTOR, seed=SEED)
    (tmp_path / BENCH_NAME).write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )

    assert result["all_verified"], "rate-adaptive answers diverged from static"
    scenarios = result["scenarios"]

    for name in ("slow", "bursty"):
        for engine_mode, mode in scenarios[name]["modes"].items():
            context = f"{name}/{engine_mode}"
            assert mode["rate_switch_fired"], (
                f"{context}: the source-rate policy never switched plans"
            )
            assert mode["adaptive"]["phases"] >= 2, (
                f"{context}: no corrective phase boundary despite a switch"
            )
            assert mode["speedup_simulated"] >= 1.3, (
                f"{context}: rate adaptivity below the 1.3x bar "
                f"({mode['speedup_simulated']}x)"
            )

    # Flaky: the collapse is only observable after enough local state has
    # accumulated that stitch-up would dominate; the policy must decline
    # (and therefore match static execution rather than regress).
    for engine_mode, mode in scenarios["flaky"]["modes"].items():
        assert not mode["rate_switch_fired"], (
            f"flaky/{engine_mode}: switched despite prohibitive sunk state"
        )
        assert mode["speedup_simulated"] >= 0.99, (
            f"flaky/{engine_mode}: declining the switch still regressed "
            f"({mode['speedup_simulated']}x)"
        )

    # The compiled engine is bit-identical to the interpreted batched engine,
    # so the benchmark's simulated timings must agree exactly per scenario.
    for name, stats in scenarios.items():
        modes = stats["modes"]
        if "interpreted" in modes and "compiled" in modes:
            for side in ("static", "adaptive"):
                assert (
                    modes["compiled"][side]["simulated_seconds"]
                    == modes["interpreted"][side]["simulated_seconds"]
                ), f"{name}: compiled {side} timing diverged from interpreted"
