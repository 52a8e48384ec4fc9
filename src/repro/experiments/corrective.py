"""Corrective-query-processing experiments (Figures 2 and 3, Tables 1 and 2).

The comparison mirrors the paper's Section 4.4 setup:

* **Static** execution with and without cardinality statistics — optimize
  once, run the chosen pipelined-hash-join plan to completion.
* **Adaptive** (corrective query processing) with and without statistics —
  poll the re-optimizer at a fixed interval, switch plans mid-stream when a
  clearly better one is found, stitch up at the end.
* **Plan partitioning** without statistics — materialize after three joins
  and re-optimize the remainder.

``wireless=True`` streams every source through a bursty, bandwidth-limited
network model (the Figure 3 / Table 2 configuration).  ``forced_bad_start``
additionally runs static and adaptive execution from the *worst* left-deep
plan, which isolates the recovery behaviour corrective query processing is
designed to provide even when the default optimizer happens to choose well at
small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.baselines.plan_partitioning import PlanPartitioningExecutor
from repro.baselines.static_executor import StaticExecutor
from repro.core.corrective import CorrectiveQueryProcessor
from repro.experiments.common import (
    DEFAULT_SCALE_FACTOR,
    DEFAULT_SEED,
    ExperimentDataset,
    as_remote_sources,
    build_paper_datasets,
    paper_queries,
)
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery

#: Re-optimization polling interval (simulated seconds).  The paper polls
#: every second of wall-clock time on queries running for tens of seconds;
#: the simulated runtimes here are a few seconds, so the interval is scaled
#: down to keep a comparable number of polls per query.
DEFAULT_POLLING_INTERVAL = 0.25


@dataclass
class CorrectiveRunResult:
    """One (query, dataset, strategy, statistics) execution."""

    query_name: str
    dataset: str
    strategy: str
    statistics: str
    simulated_seconds: float
    answers: int
    phases: int = 1
    stitchup_seconds: float = 0.0
    reused_tuples: int = 0
    discarded_tuples: int = 0
    details: dict = field(default_factory=dict)

    def row(self) -> dict[str, object]:
        return {
            "query": self.query_name,
            "dataset": self.dataset,
            "strategy": self.strategy,
            "statistics": self.statistics,
            "seconds": round(self.simulated_seconds, 2),
            "phases": self.phases,
        }


def worst_left_deep_tree(query: SPJAQuery, dataset: ExperimentDataset) -> JoinTree:
    """A deliberately poor plan: join the largest relations first."""
    order = sorted(query.relations, key=lambda name: -len(dataset.sources[name]))
    chosen = [order[0]]
    remaining = [name for name in order[1:]]
    while remaining:
        for name in list(remaining):
            if query.predicates_between(frozenset(chosen), frozenset((name,))):
                chosen.append(name)
                remaining.remove(name)
                break
        else:  # pragma: no cover - queries are connected
            chosen.extend(remaining)
            break
    return JoinTree.left_deep(chosen)


def _sources_for(dataset: ExperimentDataset, wireless: bool, seed: int):
    if wireless:
        return as_remote_sources(dataset, seed)
    return dataset.sources


def run_corrective_comparison(
    query_names: Sequence[str] | None = None,
    datasets: Mapping[str, ExperimentDataset] | None = None,
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    polling_interval: float = DEFAULT_POLLING_INTERVAL,
    include_plan_partitioning: bool = True,
    wireless: bool = False,
    forced_bad_start: bool = False,
    seed: int = DEFAULT_SEED,
    batch_size: int | None = None,
    engine_mode: str | None = None,
) -> list[CorrectiveRunResult]:
    """Run the Figure 2 (or Figure 3, with ``wireless=True``) comparison.

    Every engine configuration reads in the paper's tuple order, so results,
    phase counts and simulated seconds are bit-identical for any
    ``batch_size`` and ``engine_mode``, for the local experiments (Figure 2)
    and the wireless ones (Figure 3) alike; only the wall-clock cost of
    regenerating the experiment changes.
    """
    datasets = datasets or build_paper_datasets(scale_factor, seed)
    queries = paper_queries(query_names)
    results: list[CorrectiveRunResult] = []

    for dataset_label, dataset in datasets.items():
        sources = _sources_for(dataset, wireless, seed)
        for query_name, query in queries.items():
            configurations = [
                ("static", "none", dataset.catalog_no_statistics, None),
                ("static", "cardinalities", dataset.catalog_with_cardinalities, None),
                ("adaptive", "none", dataset.catalog_no_statistics, None),
                ("adaptive", "cardinalities", dataset.catalog_with_cardinalities, None),
            ]
            if include_plan_partitioning:
                configurations.append(
                    ("plan_partitioning", "none", dataset.catalog_no_statistics, None)
                )
            if forced_bad_start:
                bad_tree = worst_left_deep_tree(query, dataset)
                configurations.extend(
                    [
                        ("static_bad_plan", "none", dataset.catalog_no_statistics, bad_tree),
                        ("adaptive_bad_plan", "none", dataset.catalog_no_statistics, bad_tree),
                    ]
                )

            for strategy, statistics, catalog, initial_tree in configurations:
                results.append(
                    _run_single(
                        strategy,
                        statistics,
                        query_name,
                        query,
                        dataset_label,
                        catalog,
                        sources,
                        polling_interval,
                        initial_tree,
                        batch_size,
                        engine_mode,
                    )
                )
    return results


def _run_single(
    strategy: str,
    statistics: str,
    query_name: str,
    query: SPJAQuery,
    dataset_label: str,
    catalog,
    sources,
    polling_interval: float,
    initial_tree: JoinTree | None,
    batch_size: int | None = None,
    engine_mode: str | None = None,
) -> CorrectiveRunResult:
    if strategy.startswith("static"):
        report = StaticExecutor(
            catalog, sources, batch_size=batch_size, engine_mode=engine_mode
        ).execute(query, join_tree=initial_tree)
        return CorrectiveRunResult(
            query_name=query_name,
            dataset=dataset_label,
            strategy=strategy,
            statistics=statistics,
            simulated_seconds=report.simulated_seconds,
            answers=len(report.rows),
            details={"join_tree": str(report.join_tree)},
        )
    if strategy == "plan_partitioning":
        report = PlanPartitioningExecutor(
            catalog, sources, batch_size=batch_size, engine_mode=engine_mode
        ).execute(query)
        return CorrectiveRunResult(
            query_name=query_name,
            dataset=dataset_label,
            strategy=strategy,
            statistics=statistics,
            simulated_seconds=report.simulated_seconds,
            answers=len(report.rows),
            details={"materialized": report.materialized},
        )
    # adaptive / adaptive_bad_plan
    processor = CorrectiveQueryProcessor(
        catalog,
        sources,
        polling_interval_seconds=polling_interval,
        batch_size=batch_size,
        engine_mode=engine_mode,
    )
    report = processor.execute(query, initial_tree=initial_tree)
    return CorrectiveRunResult(
        query_name=query_name,
        dataset=dataset_label,
        strategy=strategy,
        statistics=statistics,
        simulated_seconds=report.simulated_seconds,
        answers=len(report.rows),
        phases=report.num_phases,
        stitchup_seconds=report.stitchup_seconds,
        reused_tuples=report.reused_tuples,
        discarded_tuples=report.discarded_tuples,
        details={"trees": [str(p.join_tree) for p in report.phases]},
    )


def comparison_rows(results: Sequence[CorrectiveRunResult]) -> list[dict[str, object]]:
    """Figure 2/3 style rows: one per (query, dataset, strategy, statistics)."""
    return [result.row() for result in results]


def stitchup_breakdown(results: Sequence[CorrectiveRunResult]) -> list[dict[str, object]]:
    """Table 1/2 style rows for the adaptive runs.

    Columns mirror the paper: number of phases, time spent in stitch-up,
    tuples reused from prior phases, and tuples that were registered but not
    reused ("discarded").
    """
    rows = []
    for result in results:
        if not result.strategy.startswith("adaptive"):
            continue
        rows.append(
            {
                "query": result.query_name,
                "dataset": result.dataset,
                "strategy": result.strategy,
                "statistics": result.statistics,
                "phases": result.phases,
                "stitchup_seconds": round(result.stitchup_seconds, 2),
                "reused_tuples": result.reused_tuples,
                "discarded_tuples": result.discarded_tuples,
                "total_seconds": round(result.simulated_seconds, 2),
            }
        )
    return rows
