"""Serving-vs-solo differential tests for the in-process, one-shard server.

The correctness bar of the serving layer: admitting N queries to one server
— shared source objects, any submission order, cross-run statistics — must
leave every query's result **bit-identical** to its solo corrective
execution (multiset, work counters, ``repr``-equal simulated seconds and
phase counts), and equal to the brute-force reference oracle.  The
workloads reuse the same seeded generator as the engine differential tests,
so the population spans aggregation, empty inputs, multi-join queries and
remote (bursty-arrival) sources; a meta-test pins that coverage so the
assertions cannot silently become vacuous.
"""

from __future__ import annotations

import pytest

from differential import SUBMISSION_ORDERS, run_sharded_differential_case

from repro.core.corrective import CorrectiveQueryProcessor

#: (concurrency level, workload seeds) — N ∈ {2, 4, 8}, drawn from the same
#: seed population as the engine differential tests.
CONCURRENCY_CASES = (
    (2, (0, 1)),
    (4, (2, 3, 4, 5)),
    (8, (6, 7, 8, 9, 10, 11, 12, 13)),
)

_CASE_CACHE: dict[tuple, object] = {}


def _case(seeds, order, batch_size=None):
    key = (tuple(seeds), order, batch_size)
    result = _CASE_CACHE.get(key)
    if result is None:
        result = run_sharded_differential_case(
            seeds, order, 1, batch_size=batch_size, start_method="inline"
        )
        _CASE_CACHE[key] = result
    return result


@pytest.mark.parametrize("order", SUBMISSION_ORDERS)
@pytest.mark.parametrize(
    "concurrency,seeds", CONCURRENCY_CASES, ids=lambda value: str(value)
)
def test_serving_matches_solo(concurrency, seeds, order):
    result = _case(seeds, order)
    assert len(result.report.served) == concurrency


@pytest.mark.parametrize("order", SUBMISSION_ORDERS)
def test_serving_matches_solo_batched(order):
    """Batched engines under serving are still bit-identical to solo."""
    result = _case((2, 3, 4, 5), order, batch_size=64)
    assert len(result.report.served) == 4


def test_serving_population_covers_interesting_regimes():
    """The equivalence claims only bite if the served population is diverse."""
    cases = [
        _case(seeds, order)
        for _, seeds in CONCURRENCY_CASES
        for order in SUBMISSION_ORDERS
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
        "serving is at risk of being vacuously true"
    )
    assert multi_join >= 4
    assert aggregated >= 2


def test_submission_order_is_the_run_order_and_changes_no_answer(monkeypatch):
    """A shard runs its sessions in admission order, so reversing the
    submissions reverses the runs, while both stay bit-identical to solo."""
    order: list[str] = []
    execute = CorrectiveQueryProcessor.execute

    def recording(self, query, *args, **kwargs):
        order.append(query.name)
        return execute(self, query, *args, **kwargs)

    monkeypatch.setattr(CorrectiveQueryProcessor, "execute", recording)
    seeds = (6, 7, 8, 9, 10, 11, 12, 13)
    runs = {}
    for submission in SUBMISSION_ORDERS:
        order.clear()
        result = run_sharded_differential_case(
            seeds, submission, 1, start_method="inline"
        )
        # The solo runs come first, in workload order; the session runs last.
        runs[submission] = order[len(seeds):]
    names = [workload.query.name for workload in result.workloads]
    assert runs["forward"] == names
    assert runs["reversed"] == names[::-1]
