"""Differential suite for mirror failover.

The contract is the resilience suite's hardest promise: re-pointing a
running cursor from a mid-outage primary at a mirror's resumed stream —
partial primary read stitched to the mirror's remainder — must be invisible
in the answers.  Over seeded random workloads whose sources all collapse
into a sustained outage (each with a healthy registered mirror), corrective
execution with ``failover_adaptive=True`` must produce the identical result
multiset as the no-failover configuration and the brute-force oracle, under
the tuple-at-a-time clock oracle, batched, and under serving (there
bit-identical to solo).
A population meta-test pins that the suite actually exercises failovers
(the per-seed assertions hold trivially if the outage detector never
fires).
"""

from __future__ import annotations

import pytest

from differential import (
    SUBMISSION_ORDERS,
    assert_mirror_differential_case,
    mirror_outage_setup,
    run_mirror_differential_case,
    serve_against_solo,
)
from workload_generator import generate_workload

MIRROR_SEEDS = tuple(range(1000, 1025))

_CASE_CACHE: dict[int, object] = {}


def _case(seed: int):
    if seed not in _CASE_CACHE:
        _CASE_CACHE[seed] = run_mirror_differential_case(seed)
    return _CASE_CACHE[seed]


@pytest.mark.parametrize("seed", MIRROR_SEEDS)
def test_mirror_failover_answers_identical(seed):
    assert_mirror_differential_case(_case(seed))


def test_mirror_population_exercises_failover():
    """Meta-test: the seed population actually triggers mirror failovers.

    If the outage detector (or the mirror plumbing) silently stopped firing,
    every per-seed assertion above would still pass — static == failover ==
    oracle holds trivially when no cursor is ever re-pointed.  This guard
    fails instead, and additionally pins that failover helps: among the
    cases that failed over, completion time must never regress and must
    strictly improve for most (the mirror delivers what the dead primary
    would have trickled out over tens of seconds).
    """
    cases = [_case(seed) for seed in MIRROR_SEEDS]
    failed_over = [case for case in cases if case.failovers > 0]
    assert len(failed_over) >= 10, (
        f"only {len(failed_over)}/{len(cases)} seeds exercised a failover"
    )
    total = sum(case.failovers for case in cases)
    assert total >= len(failed_over), "failover counts are inconsistent"
    faster = [
        case
        for case in failed_over
        if case.failover.simulated_seconds < case.static.simulated_seconds
    ]
    assert len(faster) >= max(len(failed_over) // 2, 1), (
        "mirror failover rarely improved completion time"
    )


@pytest.mark.parametrize("seed", MIRROR_SEEDS[:6])
def test_mirror_failover_tuple_mode_answers_identical(seed):
    result = run_mirror_differential_case(seed, batch_size=None)
    assert_mirror_differential_case(result)


@pytest.mark.parametrize("order", SUBMISSION_ORDERS)
def test_mirror_failover_serving_matches_solo(order):
    """Served failover-adaptive sessions are bit-identical to their solo
    runs (asserted in the runner), which match the oracle."""
    seeds = (1000, 1002, 1003)
    workloads = [
        generate_workload(seed, name_prefix=f"m{index}_")
        for index, seed in enumerate(seeds)
    ]
    result = serve_against_solo(
        workloads,
        order,
        batch_size=64,
        setup=mirror_outage_setup,
        failover_adaptive=True,
        failover_stall_seconds=0.005,
    )
    served_failovers = sum(
        len(served.report.details["adaptation"]["failovers"])
        for served in result.report.served
    )
    assert served_failovers >= 1, (
        f"{order} submission: no served session exercised a mirror failover"
    )
