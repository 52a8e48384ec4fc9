"""Differential tests for order-adaptive join processing.

Three layers of evidence that the merge strategy never changes answers:

* **Forced-merge robustness** — every internal node of a plan is forced to
  the merge strategy over *arbitrary* (unordered!) randomized workloads;
  the out-of-order archive fallback must still produce the exact reference
  multiset, tuple-at-a-time and batched.
* **Adaptive corrective differential** — sorted and perturbed-sorted
  variants of the randomized workloads run through the order-adaptive
  corrective processor (with and without catalog promises, across batch
  sizes) and must match both the reference oracle and the hash-only runs,
  with batch-size-invariant phase counts on local sources.
* **Served mode** — several ordered workloads served together by an
  order-adaptive server must each be bit-identical to their solo runs.
"""

from __future__ import annotations

from collections import Counter

import pytest

from differential import (
    POLL_STEP_LIMIT,
    POLLING_INTERVAL,
    SUBMISSION_ORDERS,
    _canonical_multiset,
    _canonical_names,
    order_catalog,
    order_workload_variant,
    serve_against_solo,
)
from helpers import reference_spja

from repro.core.corrective import CorrectiveQueryProcessor
from repro.engine.pipelined import PipelinedExecutor
from repro.optimizer.ordering import JoinStrategy
from repro.optimizer.plans import JoinTree
from workload_generator import generate_workload

FORCED_MERGE_SEEDS = range(40)
ADAPTIVE_SEEDS = range(20)
ORDER_BATCH_SIZES = (7, 64)


def _force_merge_strategies(tree: JoinTree) -> dict[frozenset, JoinStrategy]:
    return {
        node.relations(): JoinStrategy(algorithm="merge", direction=1)
        for node in tree.internal_nodes()
    }


@pytest.mark.parametrize("seed", FORCED_MERGE_SEEDS)
def test_forced_merge_matches_reference_on_arbitrary_workloads(seed):
    """Merge nodes forced onto unordered data must still join exactly."""
    workload = generate_workload(seed)
    query = workload.query
    tree = JoinTree.left_deep(query.relations)
    canonical_names = _canonical_names(workload)
    reference = Counter(reference_spja(query, workload.relations))

    for batch_size in (None,) + ORDER_BATCH_SIZES:
        rows, plan = PipelinedExecutor(
            workload.sources(),
            batch_size=batch_size,
            join_strategies=_force_merge_strategies(tree),
            engine_mode="interpreted",
        ).execute(query, tree)
        names = (
            canonical_names
            if query.aggregation is not None
            else plan.output_schema.names
        )
        label = f"forced-merge[batch={batch_size}]"
        assert set(plan.join_algorithms().values()) <= {"merge"}
        assert _canonical_multiset(rows, names, canonical_names) == reference, (
            f"seed {seed}: {label} disagrees with the reference on "
            f"query {query.name}:\n{query.describe()}"
        )


@pytest.mark.parametrize("variant", ["sorted", "perturbed"])
@pytest.mark.parametrize("seed", ADAPTIVE_SEEDS)
def test_order_adaptive_corrective_differential(seed, variant):
    """Adaptive runs on (near-)sorted data match hash-only runs and the oracle."""
    base = generate_workload(seed)
    workload, sort_attrs = order_workload_variant(base, variant)
    query = workload.query
    canonical_names = _canonical_names(workload)
    reference = Counter(reference_spja(query, workload.relations))

    multisets: dict[str, Counter] = {}
    phase_counts: dict[str, int] = {}
    merge_used = False
    for with_promises in (False, True):
        for batch_size in (None,) + ORDER_BATCH_SIZES:
            catalog = order_catalog(workload, sort_attrs, with_promises)
            report = CorrectiveQueryProcessor(
                catalog,
                workload.sources(),
                polling_interval_seconds=POLLING_INTERVAL,
                batch_size=batch_size,
                engine_mode="interpreted",
                order_adaptive=True,
            ).execute(query, poll_step_limit=POLL_STEP_LIMIT)
            label = f"adaptive[promise={with_promises},batch={batch_size}]"
            multisets[label] = _canonical_multiset(
                report.rows, report.schema.names, canonical_names
            )
            phase_counts[(with_promises, batch_size)] = report.num_phases
            merge_used = merge_used or any(
                "merge" in algorithms.values()
                for algorithms in report.details["phase_join_algorithms"]
            )

    hash_report = CorrectiveQueryProcessor(
        order_catalog(workload, sort_attrs, False),
        workload.sources(),
        polling_interval_seconds=POLLING_INTERVAL,
    ).execute(query, poll_step_limit=POLL_STEP_LIMIT)
    multisets["hash-only"] = _canonical_multiset(
        hash_report.rows, hash_report.schema.names, canonical_names
    )

    for label, multiset in multisets.items():
        assert multiset == reference, (
            f"seed {seed} ({variant}): {label} disagrees with the reference "
            f"on query {query.name}:\n{query.describe()}"
        )
    if not workload.remote:
        # Phase counts are batch-size-invariant on local sources — the order
        # machinery (detector feeding, merge-node charging) must preserve
        # the batched engine's work-accounting equivalence.
        for with_promises in (False, True):
            counts = {
                phase_counts[(with_promises, batch_size)]
                for batch_size in (None,) + ORDER_BATCH_SIZES
            }
            assert len(counts) == 1, (
                f"seed {seed} ({variant}, promises={with_promises}): phase "
                f"counts diverge across batch sizes: {phase_counts}"
            )


def test_adaptive_runs_actually_use_merge_somewhere():
    """Meta-test: across the adaptive seed population, sorted variants with
    promises must exercise the merge strategy (guards against the selector
    silently never firing, which would make the suite vacuous)."""
    used = 0
    for seed in ADAPTIVE_SEEDS:
        base = generate_workload(seed)
        if len(base.query.relations) < 2:
            continue
        workload, sort_attrs = order_workload_variant(base, "sorted")
        report = CorrectiveQueryProcessor(
            order_catalog(workload, sort_attrs, True),
            workload.sources(),
            polling_interval_seconds=POLLING_INTERVAL,
            order_adaptive=True,
        ).execute(workload.query, poll_step_limit=POLL_STEP_LIMIT)
        if any(
            "merge" in algorithms.values()
            for algorithms in report.details["phase_join_algorithms"]
        ):
            used += 1
    assert used >= 5, f"merge strategy only used on {used} seeds"


@pytest.mark.parametrize("order", SUBMISSION_ORDERS)
@pytest.mark.parametrize("batch_size", [None, 64])
def test_order_adaptive_serving_matches_solo(order, batch_size):
    """Served order-adaptive sessions over promised sorted sources are
    bit-identical to their solo runs (asserted in the runner), which match
    the oracle, and the orderings they discovered reach the server's cache."""
    workloads = []
    sort_attrs: dict[str, str] = {}
    for index, seed in enumerate((3, 7, 11)):
        base = generate_workload(seed, name_prefix=f"w{index}_")
        workload, attrs = order_workload_variant(base, "sorted")
        workloads.append(workload)
        sort_attrs.update(attrs)
    result = serve_against_solo(
        workloads,
        order,
        batch_size=batch_size,
        setup=lambda workload: (
            order_catalog(workload, sort_attrs, True),
            workload.sources(),
        ),
        bad_plan=False,
        order_adaptive=True,
    )
    assert result.report.stats_cache_summary["orderings"] > 0
