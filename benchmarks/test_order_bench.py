"""Order-adaptivity acceptance benchmark (record written under pytest's ``tmp_path``).

The tier-1 suite leaves tracked files alone; keep a record with
``repro.experiments.cli order-bench --bench-output FILE``.

Runs the ``order-bench`` scenario matrix (sorted / near-sorted / unordered /
lying-promise source mixes, hash-only vs order-adaptive corrective
processing) and asserts the PR's acceptance criteria:

* every adaptive run's result multiset is identical to its hash-only twin;
* on the fully sorted two-source workloads the adaptive system selects
  (promise) or switches to (runtime detection) the merge strategy and beats
  hash-only on simulated seconds *and* peak resident join state;
* on unordered inputs the adaptive system does not regress beyond the
  detector bookkeeping noise.
"""

from __future__ import annotations

import json

from repro.experiments.order_bench import run_order_benchmark

SCALE_FACTOR = 0.003
SEED = 2004

BENCH_NAME = "BENCH_pr3.json"


def test_order_bench_acceptance_and_record(tmp_path):
    result = run_order_benchmark(scale_factor=SCALE_FACTOR, seed=SEED)
    (tmp_path / BENCH_NAME).write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )

    scenarios = result["scenarios"]
    assert result["all_verified"], "adaptive answers diverged from hash-only"

    for name in ("sorted_promised", "sorted_detected"):
        stats = scenarios[name]
        assert stats["merge_used"], f"{name}: merge strategy never ran"
        assert stats["speedup_simulated"] > 1.0, (
            f"{name}: adaptive not faster ({stats['speedup_simulated']}x)"
        )
        assert stats["state_reduction"] > 2.0, (
            f"{name}: peak state not reduced ({stats['state_reduction']}x)"
        )

    # The promise-driven run starts on merge in phase 0; the detection-driven
    # run must have switched hash→merge mid-flight (>= 2 phases).
    assert scenarios["sorted_promised"]["adaptive"]["phase_join_algorithms"][0] == {
        "r ⋈ s": "merge"
    }
    detected = scenarios["sorted_detected"]["adaptive"]
    assert detected["phases"] >= 2
    assert detected["phase_join_algorithms"][0] == {"r ⋈ s": "hash"}
    assert any(
        "merge" in algorithms.values()
        for algorithms in detected["phase_join_algorithms"][1:]
    )

    # Near-sorted inputs stay merge-eligible (the archive absorbs stragglers).
    assert scenarios["near_sorted"]["merge_used"]

    # Unordered inputs: the selector must not fire, and the adaptive run
    # stays within 5% of hash-only.
    unordered = scenarios["unordered"]
    assert not unordered["merge_used"]
    assert unordered["speedup_simulated"] > 0.95

    # A lying promise costs something (the merge node's late-tuple fallback)
    # but must stay bounded and, above all, correct.
    lying = scenarios["lying_promise"]
    assert lying["verified_vs_hash"]
    assert lying["speedup_simulated"] > 0.75
