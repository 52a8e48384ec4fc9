"""Pre-aggregation experiment (Figure 6).

For every evaluation query over the uniform and skewed datasets, three plans
are compared:

* **single aggregation** — no pre-aggregation, only the final GROUP BY;
* **adjustable-window pre-aggregation** — the paper's pipelined operator,
  inserted at every applicable pre-aggregation point;
* **traditional pre-aggregation** — a blocking partial GROUP BY, applied only
  where the optimizer's benefit estimate says it will shrink the data (it is
  therefore absent for query 5, exactly as in the paper).

Every plan runs on the pipelined engine, tuple at a time; each
pre-aggregation point is a window stage inside its join network.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.engine.pipelined import PipelinedExecutor
from repro.experiments.common import (
    DEFAULT_SCALE_FACTOR,
    DEFAULT_SEED,
    ExperimentDataset,
    build_paper_datasets,
    paper_queries,
)
from repro.optimizer.enumerator import Optimizer

#: Strategy label -> the ``preaggregation`` argument handed to the optimizer.
STRATEGY_MODES: dict[str, str | None] = {
    "single_aggregation": None,
    "adjustable_window": "window",
    "traditional": "traditional",
}


def run_preaggregation_comparison(
    query_names: Sequence[str] | None = None,
    datasets: Mapping[str, ExperimentDataset] | None = None,
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    seed: int = DEFAULT_SEED,
) -> list[dict[str, object]]:
    """Run Figure 6: one row per (query, dataset, strategy)."""
    datasets = datasets or build_paper_datasets(scale_factor, seed)
    queries = paper_queries(query_names)
    rows: list[dict[str, object]] = []
    for dataset_label, dataset in datasets.items():
        optimizer = Optimizer(dataset.catalog_with_cardinalities)
        executor = PipelinedExecutor(dataset.sources)
        for query_name, query in queries.items():
            for strategy, mode in STRATEGY_MODES.items():
                plan = optimizer.optimize(query, preaggregation=mode)
                answers, pipelined = executor.execute(
                    query, plan.join_tree, preagg_points=plan.preagg_points
                )
                rows.append(
                    {
                        "query": query_name,
                        "dataset": dataset_label,
                        "strategy": strategy,
                        "seconds": round(pipelined.clock.now, 2),
                        "preagg_points": len(plan.preagg_points),
                        "answers": len(answers),
                        "work_units": round(pipelined.metrics.work(), 0),
                    }
                )
    return rows
