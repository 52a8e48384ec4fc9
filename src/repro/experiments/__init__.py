"""Experiment harnesses reproducing every table and figure of the paper.

Each module builds the workload, runs the competing strategies, and returns
plain data rows (lists of dictionaries) that mirror what the paper reports:

========================  ==========================================================
module                     reproduces
========================  ==========================================================
``corrective``             Figure 2 / Figure 3 (running times of static, corrective
                           and plan-partitioning execution) and Tables 1 / 2
                           (phase and stitch-up breakdown), local or wireless
``complementary``          Figure 5 (pipelined hash vs complementary joins) and
                           Table 3 (per-component output distribution)
``preaggregation``         Figure 6 (single vs adjustable-window vs traditional
                           pre-aggregation)
``selectivity``            Section 4.5 (predicting join sizes from incremental
                           histograms + order detection, and their overhead)
``ablations``              sensitivity sweeps over the paper's main knobs
                           (re-optimization polling interval, priority-queue
                           capacity, window policy)
========================  ==========================================================

The tests under ``benchmarks/`` (which regenerate the golden tables in
``benchmarks/results/``), the CLI and several examples are thin wrappers
around these functions, so every number can be regenerated with a single
command per experiment.
"""

from repro.experiments.common import (
    ExperimentDataset,
    build_dataset,
    format_table,
    wireless_network_for,
)
from repro.experiments.corrective import (
    CorrectiveRunResult,
    run_corrective_comparison,
    stitchup_breakdown,
)
from repro.experiments.complementary import (
    run_complementary_comparison,
    complementary_distribution,
)
from repro.experiments.preaggregation import run_preaggregation_comparison
from repro.experiments.selectivity import run_selectivity_prediction
from repro.experiments.ablations import (
    sweep_polling_interval,
    sweep_priority_queue_capacity,
    sweep_window_policy,
)

__all__ = [
    "ExperimentDataset",
    "build_dataset",
    "format_table",
    "wireless_network_for",
    "CorrectiveRunResult",
    "run_corrective_comparison",
    "stitchup_breakdown",
    "run_complementary_comparison",
    "complementary_distribution",
    "run_preaggregation_comparison",
    "run_selectivity_prediction",
    "sweep_polling_interval",
    "sweep_priority_queue_capacity",
    "sweep_window_policy",
]
