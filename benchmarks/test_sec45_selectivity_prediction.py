"""Section 4.5: predicting intermediate result sizes from runtime summaries."""

from __future__ import annotations

from repro.experiments.common import format_table
from repro.experiments.selectivity import run_selectivity_prediction

SCALE_FACTOR = 0.003


def test_sec45_selectivity_prediction(save_result):
    result = run_selectivity_prediction(scale_factor=SCALE_FACTOR)
    rows = result["prediction_rows"]
    overhead = result["overhead"]
    content = format_table(rows) + "\n\nhistogram maintenance overhead: " + str(overhead)
    save_result("sec45_selectivity_prediction", content)

    by_fraction = {row["fraction_seen"]: row for row in rows}

    # The combined histogram + order/uniqueness estimator converges: once a
    # majority of the streams has been seen, both the two-way and the
    # three-way join estimates are within 25 % of the exact sizes (the paper
    # reports near-exact estimates at 75 % and 50-60 % respectively).
    assert by_fraction[0.75]["error_2way"] <= 0.25
    assert by_fraction[0.6]["error_3way"] <= 0.25
    assert by_fraction[1.0]["error_2way"] <= 0.1
    assert by_fraction[1.0]["error_3way"] <= 0.1

    # Estimates never degrade as more data is seen (monotone convergence is
    # not guaranteed in general, but the final estimate must be at least as
    # good as the earliest one).
    assert by_fraction[1.0]["error_3way"] <= by_fraction[0.1]["error_3way"] + 1e-9

    # Maintaining the incremental histograms is expensive relative to the
    # join work — the paper's "nearly 50 %" observation; here the overhead
    # must at least be a double-digit percentage.
    assert overhead["overhead_percent"] >= 10.0
