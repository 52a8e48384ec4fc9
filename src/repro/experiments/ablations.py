"""Ablation sweeps over the main tuning knobs of the adaptive techniques.

The paper fixes several parameters (1-second re-optimization polling,
1024-tuple priority queue, multiplicative window growth).  These sweeps show
how sensitive the reproduced results are to those choices — the design-
decision ablations DESIGN.md calls out.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.complementary import ComplementaryJoinPair
from repro.core.corrective import CorrectiveQueryProcessor
from repro.core.preaggregation import WindowedPreAggregator, WindowPolicy
from repro.experiments.common import (
    DEFAULT_SCALE_FACTOR,
    DEFAULT_SEED,
    build_dataset,
)
from repro.experiments.corrective import worst_left_deep_tree
from repro.workloads.perturb import reorder_fraction
from repro.workloads.queries import query_10a


def sweep_polling_interval(
    intervals: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0),
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
) -> list[dict[str, object]]:
    """How the re-optimization polling interval affects corrective execution.

    Uses query 10A started from a deliberately poor plan, so there is a real
    correction to be made: very long intervals react too late, very short
    ones add re-optimization work without further benefit (the paper found
    even a 1-second interval to be stable).
    """
    dataset = build_dataset("uniform", scale_factor, 0.0, seed)
    query = query_10a()
    bad_tree = worst_left_deep_tree(query, dataset)
    rows = []
    for interval in intervals:
        processor = CorrectiveQueryProcessor(
            dataset.catalog_no_statistics,
            dataset.sources,
            polling_interval_seconds=interval,
        )
        report = processor.execute(query, initial_tree=bad_tree)
        rows.append(
            {
                "polling_interval": interval,
                "seconds": round(report.simulated_seconds, 2),
                "phases": report.num_phases,
                "reoptimizer_polls": report.reoptimizer_polls,
                "stitchup_seconds": round(report.stitchup_seconds, 2),
            }
        )
    return rows


def sweep_priority_queue_capacity(
    capacities: Sequence[int] = (16, 64, 256, 1024, 4096),
    reordered_fraction: float = 0.01,
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
) -> list[dict[str, object]]:
    """How the reorder-queue length affects the complementary join.

    The paper notes that shrinking the queue makes it "significantly less
    effective at reordering data for the merge join" while barely reducing
    overhead on sorted data.
    """
    dataset = build_dataset("uniform", scale_factor, 0.0, seed)
    lineitem = reorder_fraction(dataset.data.lineitem, reordered_fraction, seed=seed + 1)
    orders = reorder_fraction(dataset.data.orders, reordered_fraction, seed=seed + 2)
    rows = []
    for capacity in capacities:
        pair = ComplementaryJoinPair(
            lineitem,
            orders,
            "l_orderkey",
            "o_orderkey",
            use_priority_queue=True,
            queue_capacity=capacity,
        )
        report = pair.execute()
        merge_share = report.outputs_by_component["merge"] / max(report.output_count, 1)
        rows.append(
            {
                "queue_capacity": capacity,
                "seconds": round(report.simulated_seconds, 2),
                "merge_share": round(merge_share, 3),
                "stitch_outputs": report.outputs_by_component["stitch"],
            }
        )
    return rows


def sweep_window_policy(
    thresholds: Sequence[float] = (0.5, 0.75, 0.9),
    initial_windows: Sequence[int] = (16, 64, 256),
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
) -> list[dict[str, object]]:
    """How the adjustable-window policy reacts on aggregatable vs unique data."""
    from repro.relational.expressions import Aggregate

    dataset = build_dataset("uniform", scale_factor, 0.0, seed)
    lineitem = dataset.data.lineitem
    aggregates = (Aggregate("sum", "l_revenue", "revenue"),)
    rows = []
    for threshold in thresholds:
        for initial in initial_windows:
            policy = WindowPolicy(initial_window=initial, effectiveness_threshold=threshold)
            pre = WindowedPreAggregator(
                lineitem.schema, ("l_orderkey",), aggregates, policy=policy
            )
            outputs = sum(len(pre.feed(row)) for row in lineitem.rows)
            outputs += len(pre.flush())
            rows.append(
                {
                    "effectiveness_threshold": threshold,
                    "initial_window": initial,
                    "final_window": pre.current_window_size,
                    "reduction": round(pre.overall_reduction, 3),
                    "outputs": outputs,
                    "windows_closed": len(pre.window_decisions),
                }
            )
    return rows
