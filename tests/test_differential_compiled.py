"""Differential tests for the compiled fused-pipeline engine.

The compiled engine's contract is stronger than "same answers": it must be
**bit-identical** to the interpreted batched engine — result multisets,
every :class:`~repro.engine.cost.ExecutionMetrics` counter, simulated
seconds (on local *and* remote sources: the compiled engine preserves the
interpreted engine's clock-charge granularity, so even float summation
order coincides) and corrective phase counts.  Two scenarios:

* **solo corrective** — every seeded workload runs corrective query
  processing from the same deliberately bad initial plan with both engines;
* **served N=4** — the workloads are served four at a time, submitted in
  both orders; each served query is bit-identical to its solo run
  with either engine, so each (and the whole run's makespan) replays
  exactly.

A population meta-test keeps the generator honest: the seed range must
exercise multi-phase recoveries (stitch-up + per-phase recompilation),
remote sources, aggregations and selections, so "everything matched" is
meaningful.
"""

from __future__ import annotations

import pytest

from differential import (
    SUBMISSION_ORDERS,
    assert_compiled_differential_case,
    assert_compiled_serving_differential_case,
    run_compiled_differential_case,
    run_compiled_serving_differential_case,
)

#: ≥ 40 seeded workloads (issue-mandated floor).
COMPILED_SEEDS = range(40)

_CASE_CACHE: dict[int, object] = {}


def _case(seed: int):
    result = _CASE_CACHE.get(seed)
    if result is None:
        result = _CASE_CACHE[seed] = run_compiled_differential_case(seed)
    return result

#: The same seeds served four at a time, alternating submission orders.
SERVED_GROUPS = [
    (tuple(range(start, start + 4)), order)
    for start, order in zip(range(0, 40, 4), SUBMISSION_ORDERS * 5)
]


@pytest.mark.parametrize("seed", COMPILED_SEEDS)
def test_compiled_solo_corrective_is_bit_identical(seed):
    assert_compiled_differential_case(_case(seed))


@pytest.mark.parametrize("seed", COMPILED_SEEDS[:10])
def test_compiled_solo_corrective_is_bit_identical_at_small_batch(seed):
    """Batch 7 exercises ragged chunk boundaries in the compiled driver."""
    result = run_compiled_differential_case(seed, batch_size=7)
    assert_compiled_differential_case(result)


@pytest.mark.parametrize("seeds,order", SERVED_GROUPS)
def test_compiled_serving_replays_interpreted_serving(seeds, order):
    result = run_compiled_serving_differential_case(
        seeds, order=order, batch_size=64
    )
    assert_compiled_serving_differential_case(result)


def test_compiled_seed_population_is_representative():
    """The seed range must cover the paths the equivalence claim leans on."""
    results = [_case(seed) for seed in COMPILED_SEEDS]
    multiphase = sum(1 for r in results if r.interpreted.phases > 1)
    remote = sum(1 for r in results if r.workload.remote)
    aggregated = sum(
        1 for r in results if r.workload.query.aggregation is not None
    )
    selective = sum(1 for r in results if r.workload.query.selections)
    multi_join = sum(
        1 for r in results if len(r.workload.query.relations) >= 3
    )
    assert multiphase >= 8, f"only {multiphase} multi-phase workloads"
    assert remote >= 4, f"only {remote} remote workloads"
    assert aggregated >= 8, f"only {aggregated} aggregation workloads"
    assert selective >= 8, f"only {selective} workloads with selections"
    assert multi_join >= 10, f"only {multi_join} multi-join workloads"
