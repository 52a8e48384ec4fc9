"""Golden smoke test for the Figure 2 corrective-local benchmark.

Pins headline simulated-seconds / phase-count numbers from the seed run
(``benchmarks/results/fig2_corrective_local.txt``, scale 0.003, seed 2004)
behind a tolerance so that engine or cost-model regressions surface in
tier-1, and holds the batched engine to the accounting of the
tuple-at-a-time clock oracle (``helpers.tuple_at_a_time``) on the same
workload and on Figure 3's wireless sources.  The oracle is the reference.
No wall-clock number is recorded or asserted here: ``python -m bench.run``
is the instrument for those.

Two layers of protection:

* the *simulated* numbers must stay on the golden values (deterministic
  work accounting; a 15% tolerance leaves room for deliberate cost-model
  tuning, not for accidental behaviour changes);
* the *batched* engine must report the **same** simulated seconds (to the
  last bit), answers and phase counts as the oracle, over local and
  wireless sources alike.
"""

from __future__ import annotations

from contextlib import nullcontext

from helpers import tuple_at_a_time

from repro.experiments.common import DEFAULT_BATCH_SIZE, build_dataset
from repro.experiments.corrective import run_corrective_comparison

SCALE_FACTOR = 0.003
#: Figure 3's scale (``test_fig3_table2_corrective_wireless.py``)
WIRELESS_SCALE_FACTOR = 0.002
SEED = 2004
QUERIES = ("Q3A", "Q10A", "Q5")

#: Golden values from benchmarks/results/fig2_corrective_local.txt (seed run).
#: (query, strategy, statistics) -> (simulated_seconds, phases)
GOLDEN = {
    ("Q3A", "static", "none"): (1.52, 1),
    ("Q3A", "static", "cardinalities"): (1.52, 1),
    ("Q3A", "static_bad_plan", "none"): (2.39, 1),
    ("Q3A", "adaptive_bad_plan", "none"): (1.63, 2),
    ("Q10A", "static", "none"): (1.77, 1),
    ("Q10A", "static", "cardinalities"): (1.42, 1),
    ("Q10A", "adaptive", "none"): (1.53, 2),
    ("Q5", "static", "none"): (1.57, 1),
    ("Q5", "static", "cardinalities"): (1.28, 1),
    ("Q5", "adaptive", "none"): (1.33, 2),
}
GOLDEN_RELATIVE_TOLERANCE = 0.15


def _run(batch_size, datasets, scale_factor=SCALE_FACTOR, wireless=False):
    """The comparison at ``batch_size`` on the default kernel; ``None`` runs
    the oracle, on the interpreted kernel."""
    oracle = batch_size is None
    with tuple_at_a_time() if oracle else nullcontext():
        return run_corrective_comparison(
            query_names=QUERIES,
            datasets=datasets,
            scale_factor=scale_factor,
            wireless=wireless,
            forced_bad_start=True,
            seed=SEED,
            batch_size=batch_size,
            engine_mode="interpreted" if oracle else None,
        )


def _assert_batched_equals_tuple_mode(tuple_results, batched_results):
    by_key = {(r.query_name, r.strategy, r.statistics): r for r in tuple_results}
    batched_by_key = {
        (r.query_name, r.strategy, r.statistics): r for r in batched_results
    }
    assert set(batched_by_key) == set(by_key)
    for key, tuple_run in by_key.items():
        batched_run = batched_by_key[key]
        assert batched_run.answers == tuple_run.answers, key
        assert batched_run.phases == tuple_run.phases, key
        assert batched_run.simulated_seconds == tuple_run.simulated_seconds, (
            f"{key}: batched simulated time diverged "
            f"({batched_run.simulated_seconds!r} vs "
            f"{tuple_run.simulated_seconds!r})"
        )


def test_golden_fig2_smoke_and_batched_speedup():
    datasets = {"uniform": build_dataset("uniform", SCALE_FACTOR, 0.0, SEED)}

    tuple_results = _run(None, datasets)
    batched_results = _run(DEFAULT_BATCH_SIZE, datasets)

    by_key = {(r.query_name, r.strategy, r.statistics): r for r in tuple_results}

    # --- golden pins -----------------------------------------------------------
    for key, (golden_seconds, golden_phases) in GOLDEN.items():
        run = by_key[key]
        assert abs(run.simulated_seconds - golden_seconds) <= (
            GOLDEN_RELATIVE_TOLERANCE * golden_seconds
        ), (
            f"{key}: simulated seconds drifted from the golden value "
            f"({run.simulated_seconds:.3f} vs {golden_seconds:.2f})"
        )
        assert run.phases == golden_phases, (
            f"{key}: phase count changed ({run.phases} vs {golden_phases})"
        )

    # --- batched mode: identical accounting ------------------------------------
    _assert_batched_equals_tuple_mode(tuple_results, batched_results)


def test_batched_wireless_runs_equal_tuple_mode():
    """Figure 3's bursty wireless sources: batches read only what has
    arrived, so the clock stalls exactly where the oracle's does."""
    datasets = {
        "uniform": build_dataset("uniform", WIRELESS_SCALE_FACTOR, 0.0, SEED)
    }
    _assert_batched_equals_tuple_mode(
        _run(None, datasets, WIRELESS_SCALE_FACTOR, wireless=True),
        _run(DEFAULT_BATCH_SIZE, datasets, WIRELESS_SCALE_FACTOR, wireless=True),
    )
