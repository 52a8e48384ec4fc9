"""Serving-vs-solo differential tests.

The correctness bar of the multi-query serving layer: admitting N queries
concurrently — with a shared simulated clock, shared source objects, fair
scheduling and cross-query statistics seeding — must leave every query's
result multiset identical to its solo corrective execution (and to the
brute-force reference oracle).  The workloads reuse the same seeded
generator as the engine differential tests, so the population spans
aggregation, empty inputs, multi-join queries and remote (bursty-arrival)
sources; a meta-test pins that coverage so the assertions cannot silently
become vacuous.
"""

from __future__ import annotations

import pytest

from differential import run_serving_differential_case

POLICIES = ("round_robin", "shortest_remaining_cost")

#: (concurrency level, workload seeds) — issue-mandated N ∈ {2, 4, 8}, drawn
#: from the same seed population as the engine differential tests.
CONCURRENCY_CASES = (
    (2, (0, 1)),
    (4, (2, 3, 4, 5)),
    (8, (6, 7, 8, 9, 10, 11, 12, 13)),
)

_CASE_CACHE: dict[tuple, object] = {}


def _case(seeds, policy, batch_size=None):
    key = (tuple(seeds), policy, batch_size)
    result = _CASE_CACHE.get(key)
    if result is None:
        result = run_serving_differential_case(seeds, policy, batch_size=batch_size)
        _CASE_CACHE[key] = result
    return result


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "concurrency,seeds", CONCURRENCY_CASES, ids=lambda value: str(value)
)
def test_serving_matches_solo(concurrency, seeds, policy):
    result = _case(seeds, policy)
    assert len(result.serving_report.served) == concurrency
    # Every query genuinely ran under the shared clock.
    assert all(query.quanta >= 1 for query in result.serving_report.served)


@pytest.mark.parametrize("policy", POLICIES)
def test_serving_matches_solo_batched(policy):
    """Batched engines under concurrent serving still answer exactly."""
    result = _case((2, 3, 4, 5), policy, batch_size=64)
    assert len(result.serving_report.served) == 4


def test_serving_population_covers_interesting_regimes():
    """The equivalence claims only bite if the served population is diverse."""
    cases = [
        _case(seeds, policy)
        for _, seeds in CONCURRENCY_CASES
        for policy in POLICIES
    ]
    remote = sum(case.num_remote for case in cases)
    multi_phase = sum(
        1 for case in cases for phases in case.served_phase_counts if phases >= 2
    )
    multi_join = sum(
        1
        for case in cases
        for workload in case.workloads
        if len(workload.query.relations) >= 3
    )
    aggregated = sum(
        1
        for case in cases
        for workload in case.workloads
        if workload.query.aggregation is not None
    )
    assert remote >= 2, "no remote workloads served — arrival waits untested"
    assert multi_phase >= 2, (
        "no served query ran multiple corrective phases — adaptation under "
        "concurrency is at risk of being vacuously true"
    )
    assert multi_join >= 4
    assert aggregated >= 2


def test_scheduling_policies_change_timing_but_not_answers():
    """The two policies produce different schedules over the same inputs
    (otherwise the policy knob is dead code) while both match solo."""
    seeds = (6, 7, 8, 9, 10, 11, 12, 13)
    round_robin = _case(seeds, "round_robin")
    shortest = _case(seeds, "shortest_remaining_cost")
    rr_latencies = [query.latency for query in round_robin.serving_report.served]
    src_latencies = [query.latency for query in shortest.serving_report.served]
    assert rr_latencies != src_latencies
