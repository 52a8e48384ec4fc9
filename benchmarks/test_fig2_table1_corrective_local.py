"""Figure 2 + Table 1: corrective query processing over local sources.

Regenerates the running-time comparison of static, adaptive (corrective) and
plan-partitioning execution for queries 3A, 10, 10A and 5 over the uniform
and skewed datasets (Figure 2), and the per-query breakdown of phases,
stitch-up time and reuse (Table 1).
"""

from __future__ import annotations

from repro.experiments.common import DEFAULT_BATCH_SIZE, format_table
from repro.experiments.corrective import (
    comparison_rows,
    run_corrective_comparison,
    stitchup_breakdown,
)

SCALE_FACTOR = 0.003


def _group(results):
    """Index results by (query, dataset, strategy, statistics)."""
    return {
        (r.query_name, r.dataset, r.strategy, r.statistics): r for r in results
    }


def test_fig2_and_table1_corrective_local(save_result):
    results = run_corrective_comparison(
        scale_factor=SCALE_FACTOR, forced_bad_start=True, batch_size=DEFAULT_BATCH_SIZE
    )
    by_key = _group(results)

    # --- Figure 2 (running times) -------------------------------------------------
    fig2 = comparison_rows(results)
    save_result("fig2_corrective_local", format_table(fig2))

    # --- Table 1 (phases / stitch-up breakdown) ------------------------------------
    table1 = stitchup_breakdown(results)
    save_result("table1_stitchup_breakdown", format_table(table1))

    queries = {r.query_name for r in results}
    datasets = {r.dataset for r in results}
    assert queries == {"Q3A", "Q10", "Q10A", "Q5"}
    assert datasets == {"uniform", "skewed"}

    for query in queries:
        for dataset in datasets:
            static_cards = by_key[(query, dataset, "static", "cardinalities")]
            adaptive_none = by_key[(query, dataset, "adaptive", "none")]
            static_bad = by_key[(query, dataset, "static_bad_plan", "none")]
            adaptive_bad = by_key[(query, dataset, "adaptive_bad_plan", "none")]

            # All strategies must return the same number of answers.
            answer_counts = {
                by_key[key].answers
                for key in by_key
                if key[0] == query and key[1] == dataset
            }
            assert len(answer_counts) == 1

            # Core Figure 2 shape: adaptive execution started from a poor plan
            # recovers most of the gap to the well-informed static plan and is
            # never meaningfully worse than running that poor plan to
            # completion; when the poor plan is genuinely expensive, adaptive
            # execution must switch away from it and win outright.
            assert adaptive_bad.simulated_seconds <= 1.05 * static_bad.simulated_seconds
            assert adaptive_bad.simulated_seconds <= 1.6 * static_cards.simulated_seconds
            if static_bad.simulated_seconds > 1.15 * static_cards.simulated_seconds:
                assert adaptive_bad.phases >= 2
                assert adaptive_bad.simulated_seconds < static_bad.simulated_seconds

            # Adaptive execution never does much worse than static with the
            # same (absent) statistics.
            assert adaptive_none.simulated_seconds <= 1.25 * static_cards.simulated_seconds

    # Table 1 sanity: stitch-up happens only with >= 2 phases, reuses tuples,
    # and stays below half of total execution time (paper's observation).
    for row in table1:
        if row["phases"] > 1:
            assert row["reused_tuples"] > 0
            assert row["stitchup_seconds"] <= 0.6 * row["total_seconds"]
        else:
            assert row["stitchup_seconds"] == 0.0
