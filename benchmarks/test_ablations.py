"""Ablation sweeps over the main adaptive-processing knobs.

These are not figures from the paper; they quantify the sensitivity of the
reproduced results to the parameters the paper fixes (re-optimization polling
interval, priority-queue capacity, adjustable-window policy), as called out
in DESIGN.md.
"""

from __future__ import annotations

from repro.experiments.ablations import (
    sweep_polling_interval,
    sweep_priority_queue_capacity,
    sweep_window_policy,
)
from repro.experiments.common import format_table

SCALE_FACTOR = 0.002


def test_ablation_polling_interval(save_result):
    rows = sweep_polling_interval(scale_factor=SCALE_FACTOR)
    save_result("ablation_polling_interval", format_table(rows))
    by_interval = {row["polling_interval"]: row for row in rows}
    # Short intervals poll more often ...
    assert by_interval[0.05]["reoptimizer_polls"] >= by_interval[1.0]["reoptimizer_polls"]
    # ... and reacting at all (any finite interval that fires) never loses
    # badly to the longest interval.
    slowest = max(row["seconds"] for row in rows)
    fastest = min(row["seconds"] for row in rows)
    assert fastest <= slowest


def test_ablation_priority_queue_capacity(save_result):
    rows = sweep_priority_queue_capacity(scale_factor=SCALE_FACTOR)
    save_result("ablation_priority_queue_capacity", format_table(rows))
    by_capacity = {row["queue_capacity"]: row for row in rows}
    # Larger queues repair more disorder: the merge share is non-decreasing
    # from the smallest to the largest capacity and substantial at 1024.
    assert by_capacity[1024]["merge_share"] >= by_capacity[16]["merge_share"]
    assert by_capacity[1024]["merge_share"] >= 0.5


def test_ablation_window_policy(save_result):
    rows = sweep_window_policy(scale_factor=SCALE_FACTOR)
    save_result("ablation_window_policy", format_table(rows))
    # Lineitem grouped by order key coalesces ~4:1, so every policy must
    # deliver a real reduction, and the window must end up larger than it
    # started for at least the permissive thresholds.
    assert all(row["reduction"] < 0.9 for row in rows)
    assert any(row["final_window"] > row["initial_window"] for row in rows)
