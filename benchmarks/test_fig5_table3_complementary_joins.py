"""Figure 5 + Table 3: complementary join pairs over (mostly) sorted data.

Joins LINEITEM with ORDERS (both clustered on the order key) under 0 %, 1 %,
10 % and 50 % random reordering, comparing the pipelined hash join against
the complementary join pair with naive and priority-queue routing, and
reporting the per-component output distribution.
"""

from __future__ import annotations

from repro.experiments.common import format_table
from repro.experiments.complementary import (
    complementary_distribution,
    run_complementary_comparison,
)

SCALE_FACTOR = 0.003


def _index(rows):
    return {(r["dataset"], r["reordered"], r["strategy"]): r for r in rows}


def test_fig5_and_table3_complementary_joins(save_result):
    rows = run_complementary_comparison(scale_factor=SCALE_FACTOR)
    save_result("fig5_complementary_joins", format_table(rows))
    save_result("table3_complementary_distribution", format_table(complementary_distribution(rows)))

    by_key = _index(rows)
    datasets = {row["dataset"] for row in rows}
    assert datasets == {"uniform", "skewed"}

    for dataset in datasets:
        # All strategies produce the same number of join results.
        for fraction in (0.0, 0.01, 0.1, 0.5):
            outputs = {
                by_key[(dataset, fraction, strategy)]["outputs"]
                for strategy in (
                    "pipelined_hash",
                    "complementary_naive",
                    "complementary_priority_queue",
                )
            }
            assert len(outputs) == 1

        hash_sorted = by_key[(dataset, 0.0, "pipelined_hash")]
        naive_sorted = by_key[(dataset, 0.0, "complementary_naive")]
        queue_sorted = by_key[(dataset, 0.0, "complementary_priority_queue")]
        # Fully ordered data: both complementary variants beat the hash join,
        # the naive router is the fastest, and everything flows through the
        # merge component.
        assert naive_sorted["seconds"] < hash_sorted["seconds"]
        assert queue_sorted["seconds"] < hash_sorted["seconds"]
        assert naive_sorted["seconds"] <= queue_sorted["seconds"]
        assert naive_sorted["hash_outputs"] == 0
        assert naive_sorted["stitch_outputs"] == 0

        naive_1pct = by_key[(dataset, 0.01, "complementary_naive")]
        queue_1pct = by_key[(dataset, 0.01, "complementary_priority_queue")]
        # 1 % reordering: the priority queue repairs the disorder (most output
        # still comes from the merge join) and clearly beats naive routing.
        assert queue_1pct["seconds"] < naive_1pct["seconds"]
        assert queue_1pct["merge_outputs"] > naive_1pct["merge_outputs"]
        assert queue_1pct["merge_outputs"] > 0.7 * queue_1pct["outputs"]

        hash_10pct = by_key[(dataset, 0.1, "pipelined_hash")]
        queue_10pct = by_key[(dataset, 0.1, "complementary_priority_queue")]
        # By 10 % reordering the advantage has mostly evaporated.
        assert queue_10pct["seconds"] <= 1.15 * hash_10pct["seconds"]

        naive_50pct = by_key[(dataset, 0.5, "complementary_naive")]
        queue_50pct = by_key[(dataset, 0.5, "complementary_priority_queue")]
        # Heavily randomized data: the priority queue still finds contiguous
        # runs and routes more tuples to the merge join than naive routing.
        assert queue_50pct["merge_outputs"] > naive_50pct["merge_outputs"]
