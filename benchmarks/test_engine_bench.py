"""Engine-mode benchmark gate: compiled fused pipelines vs interpreted.

Runs the three-mode engine comparison of
:mod:`repro.experiments.engine_bench` on the fig2 smoke workload and writes
the record under pytest's ``tmp_path`` (the tier-1 suite leaves tracked files
alone; ``repro.experiments.cli engine-bench --bench-output FILE`` keeps one).
Two layers of protection:

* **equivalence is exact** — the compiled engine must produce bit-identical
  result multisets, work counters and simulated seconds to the interpreted
  batched engine at every batch size, and identical corrective phase
  counts.  This is asserted without tolerance (it is deterministic).
* **wall-clock is gated** — at the headline batch size (64) the compiled
  engine must beat the interpreted batched engine by ``MIN_COMPILED_SPEEDUP``
  and the tuple-at-a-time engine by ``MIN_TUPLE_SPEEDUP``.  The acceptance
  bar for this PR is 1.5x over interpreted-batched (recorded in the JSON as
  ``targets``); as with the PR 1 smoke gate, the in-test assertion keeps a
  small safety margin for slow/noisy CI machines, and a failing first
  measurement is retried once with the better observation kept.

Note the denominator: the interpreted batched engine measured here already
includes this PR's shared read-path optimizations (columnar cursors,
arithmetic water-filling), which sped the *baseline* up by ~25% relative to
the PR 3 seed — the compiled engine's margin is measured over that faster
baseline, not over the seed.
"""

from __future__ import annotations

import json

from repro.experiments.engine_bench import (
    HEADLINE_BATCH,
    run_engine_benchmark,
)

#: Acceptance bar (recorded in the JSON) and in-test margins.  The margin
#: below the 1.5x bar mirrors the PR 1 smoke gate's convention (its 1.5x
#: bar is asserted at 1.35x in-test) for slow/noisy CI machines.
TARGET_COMPILED_SPEEDUP = 1.5
MIN_COMPILED_SPEEDUP = 1.35
MIN_TUPLE_SPEEDUP = 3.0

BENCH_NAME = "BENCH_pr4.json"


def _gate_score(record) -> float:
    """How comfortably a record clears both wall-clock gates (>=1 passes).

    The minimum of the two gate ratios normalized by their thresholds, so a
    retry is kept exactly when it improves the *binding* (worst) gate —
    keeping only a better compiled-vs-batched ratio could discard a retry
    that cured a compiled-vs-tuple failure.
    """
    ratios = record["speedups"][str(HEADLINE_BATCH)]
    return min(
        ratios["compiled_vs_batched"] / MIN_COMPILED_SPEEDUP,
        ratios["compiled_vs_tuple"] / MIN_TUPLE_SPEEDUP,
    )


def test_engine_bench_equivalence_and_speedup(tmp_path):
    result = run_engine_benchmark(repeats=5)
    if _gate_score(result) < 1.0:
        # Timing on shared CI runners is noisy; re-measure once and keep the
        # observation that clears the gates more comfortably (the whole
        # record is replaced so the emitted JSON stays internally
        # consistent).
        retry = run_engine_benchmark(repeats=5)
        if _gate_score(retry) > _gate_score(result):
            result = retry
    ratios = result["speedups"][str(HEADLINE_BATCH)]

    bench_output = tmp_path / BENCH_NAME
    bench_output.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    # --- exact equivalence (deterministic, no tolerance) -----------------------
    assert result["equivalence_check"], (
        "compiled engine diverged from the interpreted engine: "
        f"{result['equivalence_mismatches']}"
    )

    # --- wall-clock gates --------------------------------------------------------
    assert ratios["compiled_vs_batched"] >= MIN_COMPILED_SPEEDUP, (
        f"compiled engine is only {ratios['compiled_vs_batched']:.2f}x faster "
        f"than the interpreted batched engine at batch {HEADLINE_BATCH} "
        f"(acceptance bar {TARGET_COMPILED_SPEEDUP}x, CI margin "
        f"{MIN_COMPILED_SPEEDUP}x; see {bench_output})"
    )
    assert ratios["compiled_vs_tuple"] >= MIN_TUPLE_SPEEDUP, (
        f"compiled engine is only {ratios['compiled_vs_tuple']:.2f}x faster "
        f"than tuple-at-a-time at batch {HEADLINE_BATCH} "
        f"(expected >= {MIN_TUPLE_SPEEDUP}x; see {bench_output})"
    )

    # The batched engine itself must not have regressed behind the compiled
    # engine's gains: compiled should also beat batched at the largest batch.
    largest = str(max(result["batch_sizes"]))
    assert result["speedups"][largest]["compiled_vs_batched"] >= 1.0
