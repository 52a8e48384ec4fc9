"""Differential tests: every engine, every batch size, identical answers.

The centerpiece of the batched-execution work: ~50 seeded random SPJA
queries over randomized workloads, each executed by the brute-force
reference, the static executor, the tuple-at-a-time pipelined engine, the
batched engine (batch sizes 1, 7, 64, 1024) and the corrective processor in
both modes.  All must produce identical multisets of result rows, and all
corrective configurations must report identical final phase counts and
``repr``-equal simulated seconds, on local and remote workloads alike.

A meta-test then checks the generated population actually covers the
interesting regimes (aggregation, multi-phase corrective runs, empty inputs,
remote sources), so the equivalence assertions cannot silently become
vacuous if the generator drifts.
"""

from __future__ import annotations

import pytest

from differential import (
    assert_differential_case,
    run_differential_case,
)

from repro.workloads.differential import generate_workload

SEEDS = tuple(range(50))

_CASE_CACHE: dict[int, object] = {}


def _case(seed: int):
    result = _CASE_CACHE.get(seed)
    if result is None:
        result = run_differential_case(seed)
        _CASE_CACHE[seed] = result
    return result


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree(seed):
    assert_differential_case(_case(seed))


def test_workload_generation_is_deterministic():
    first = generate_workload(17)
    second = generate_workload(17)
    assert first.query.name == second.query.name
    assert first.query.relations == second.query.relations
    assert [str(p) for p in first.query.join_predicates] == [
        str(p) for p in second.query.join_predicates
    ]
    for name in first.relations:
        assert first.relations[name].rows == second.relations[name].rows
    assert first.remote == second.remote


def test_population_covers_interesting_regimes():
    """The equivalence claims above only bite if the population is diverse."""
    cases = [_case(seed) for seed in SEEDS]
    aggregated = sum(1 for case in cases if case.uses_aggregation)
    # Phase-count equality is only *asserted* on local workloads, so the
    # population must include local multi-phase runs for it to bite.
    multi_phase = sum(
        1 for case in cases if not case.workload.remote and case.max_phases >= 2
    )
    multi_join = sum(1 for case in cases if len(case.workload.query.relations) >= 3)
    with_empty_input = sum(
        1
        for case in cases
        if any(len(rel) == 0 for rel in case.workload.relations.values())
    )
    remote = sum(1 for case in cases if case.workload.remote)
    empty_answers = sum(1 for case in cases if not case.reference)
    nonempty_answers = sum(1 for case in cases if case.reference)

    assert aggregated >= 10, f"only {aggregated} aggregation queries generated"
    assert multi_phase >= 3, (
        f"only {multi_phase} seeds produced a multi-phase corrective run — "
        "phase-count equality is at risk of being vacuously true"
    )
    assert multi_join >= 15
    assert with_empty_input >= 2
    assert remote >= 5
    assert empty_answers >= 3
    assert nonempty_answers >= 25
