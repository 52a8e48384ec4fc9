"""Shared infrastructure for the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.sources.network import BurstyNetworkModel
from repro.sources.remote import RemoteSource
from repro.workloads.generator import TPCHData, TPCHGenerator
from repro.workloads.queries import paper_query_workload

#: Scale factor used by default throughout the experiment harnesses.  The
#: paper runs TPC-H at scale factor 0.1 (≈ 860 K tuples); a pure-Python engine
#: reproduces the same *shapes* at a much smaller scale in reasonable time.
DEFAULT_SCALE_FACTOR = 0.003
#: Zipf exponent of the skewed dataset (matches the paper's z = 0.5).
DEFAULT_SKEW_Z = 0.5
#: Seed used everywhere so every run of the harness sees identical data.
DEFAULT_SEED = 2004
#: Recommended batch size (used by the golden smoke benchmark; pass it
#: explicitly).  64 keeps a static run's steps inside the corrective poll
#: chunk (``poll_step_limit``, 200 tuples).
DEFAULT_BATCH_SIZE = 64


@dataclass
class ExperimentDataset:
    """A generated dataset plus the catalogs the strategies are given."""

    label: str
    data: TPCHData
    sources: dict[str, Relation]
    catalog_no_statistics: Catalog
    catalog_with_cardinalities: Catalog

    @property
    def total_tuples(self) -> int:
        return self.data.total_tuples()


def build_dataset(
    label: str = "uniform",
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    zipf_z: float = 0.0,
    seed: int = DEFAULT_SEED,
) -> ExperimentDataset:
    """Generate a dataset and both catalog configurations used by the paper."""
    data = TPCHGenerator(scale_factor=scale_factor, zipf_z=zipf_z, seed=seed).generate()
    return ExperimentDataset(
        label=label,
        data=data,
        sources=data.as_sources(),
        catalog_no_statistics=data.catalog(with_cardinalities=False),
        catalog_with_cardinalities=data.catalog(with_cardinalities=True),
    )


def build_paper_datasets(
    scale_factor: float = DEFAULT_SCALE_FACTOR, seed: int = DEFAULT_SEED
) -> dict[str, ExperimentDataset]:
    """The uniform and skewed datasets the paper evaluates on."""
    return {
        "uniform": build_dataset("uniform", scale_factor, 0.0, seed),
        "skewed": build_dataset("skewed", scale_factor, DEFAULT_SKEW_Z, seed),
    }


def paper_queries(names: Sequence[str] | None = None):
    """The evaluation queries, optionally restricted to ``names``."""
    workload = paper_query_workload()
    if names is None:
        return workload
    return {name: workload[name] for name in names}


def wireless_network_for(index: int, seed: int = DEFAULT_SEED) -> BurstyNetworkModel:
    """The bursty, bandwidth-limited link model used in the Figure 3 runs.

    Parameters approximate a congested 802.11b link relative to the engine's
    simulated processing rate: bursts of a few hundred tuples separated by
    tens-of-milliseconds gaps.  ``index`` decorrelates the per-source burst
    patterns.
    """
    return BurstyNetworkModel(
        burst_rate=40_000.0,
        mean_burst_tuples=250,
        mean_gap_seconds=0.04,
        latency=0.05,
        seed=seed * 31 + index,
    )


def as_remote_sources(
    dataset: ExperimentDataset, seed: int = DEFAULT_SEED
) -> dict[str, RemoteSource]:
    """Wrap every relation of a dataset behind its own wireless connection."""
    return {
        name: RemoteSource(relation, wireless_network_for(i, seed))
        for i, (name, relation) in enumerate(sorted(dataset.sources.items()))
    }


def format_table(rows: Iterable[Mapping[str, object]], columns: Sequence[str] | None = None) -> str:
    """Render result rows as a fixed-width text table (for benches/examples)."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_format_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(cells[i]) for cells in rendered))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(str(col).ljust(width) for col, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))
        for cells in rendered
    )
    return "\n".join([header, separator, body])


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
