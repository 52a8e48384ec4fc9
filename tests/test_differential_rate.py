"""Differential suite for source-rate adaptivity.

Two contracts:

* **Answers never change** — over seeded random workloads whose sources all
  sit behind collapsing rate-promising links, corrective execution with
  ``rate_adaptive=True`` must produce the identical result multiset as the
  static configuration and the brute-force oracle, no matter which read
  demotions or rate-aware plan switches the policy chose (solo and served).
* **Inert without promises** — on workloads whose catalog carries no
  ``promised_rate``, enabling ``rate_adaptive`` must be a bit-identical
  no-op: same multisets, same work counters, same simulated seconds, same
  phase counts.  The policy only ever acts on a broken promise.
"""

from __future__ import annotations

import pytest

from differential import (
    SUBMISSION_ORDERS,
    assert_rate_differential_case,
    rate_collapse_setup,
    run_rate_differential_case,
    run_solo_corrective,
    serve_against_solo,
)

from workload_generator import generate_workload

RATE_SEEDS = tuple(range(900, 925))
NO_PROMISE_SEEDS = tuple(range(930, 942))

_CASE_CACHE: dict[int, object] = {}


def _case(seed: int):
    if seed not in _CASE_CACHE:
        _CASE_CACHE[seed] = run_rate_differential_case(seed)
    return _CASE_CACHE[seed]


@pytest.mark.parametrize("seed", RATE_SEEDS)
def test_rate_adaptive_answers_identical(seed):
    assert_rate_differential_case(_case(seed))


def test_rate_population_exercises_the_policy():
    """Meta-test: the seed population actually triggers rate actions.

    If a refactor silently stopped the collapse detector from firing, every
    per-seed assertion above would still pass (static == adaptive == oracle
    holds trivially when the policy never acts); this guard fails instead.
    """
    cases = [_case(seed) for seed in RATE_SEEDS]
    switched = [case for case in cases if case.rate_switches > 0]
    demoted = [case for case in cases if case.reprioritizations > 0]
    multi_phase = [case for case in cases if case.adaptive.phases >= 2]
    assert len(demoted) >= 5, "collapse demotions fired on too few seeds"
    assert len(switched) >= 3, "rate-aware plan switches fired on too few seeds"
    assert len(multi_phase) >= 3


@pytest.mark.parametrize("seed", RATE_SEEDS[:6])
def test_rate_adaptive_tuple_mode_answers_identical(seed):
    result = run_rate_differential_case(seed, batch_size=None)
    assert_rate_differential_case(result)


@pytest.mark.parametrize("seed", NO_PROMISE_SEEDS)
def test_rate_adaptive_is_bit_identical_without_promises(seed):
    """No promise, no action: the flag must not perturb anything at all."""
    workload = generate_workload(seed)
    _, static = run_solo_corrective(workload, batch_size=64)
    _, adaptive = run_solo_corrective(workload, batch_size=64, rate_adaptive=True)
    assert adaptive.multiset == static.multiset
    assert adaptive.metrics == static.metrics, (
        f"seed {seed}: rate_adaptive perturbed work counters without any "
        f"rate promise in the catalog"
    )
    assert adaptive.simulated_seconds == static.simulated_seconds
    assert adaptive.phases == static.phases


@pytest.mark.parametrize("order", SUBMISSION_ORDERS)
def test_rate_adaptive_serving_matches_solo(order):
    """Served rate-adaptive sessions, every source behind a collapsing link
    in one shared pool, are bit-identical to their solo runs (asserted in
    the runner), which match the oracle."""
    workloads = [
        generate_workload(seed, name_prefix=f"w{index}_")
        for index, seed in enumerate((901, 905, 910))
    ]
    serve_against_solo(
        workloads,
        order,
        batch_size=64,
        setup=rate_collapse_setup,
        rate_adaptive=True,
    )
