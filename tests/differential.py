"""Differential testing harness for the execution engines.

Generates seeded random SPJA queries over randomized relations and runs each
one through every engine configuration:

* a brute-force reference evaluation (``helpers.reference_spja``) — the
  independent oracle;
* the static executor (optimizer-chosen tree, tuple-at-a-time);
* the pipelined engine, tuple-at-a-time, on a fixed join tree;
* the batched pipelined engine on the same tree at several batch sizes;
* the corrective query processor, tuple-at-a-time and batched, forced to
  start from a deliberately poor plan so that multi-phase executions (and
  therefore stitch-up and phase accounting) get exercised.

Every configuration must produce the **identical multiset** of result rows,
and every corrective configuration must report the **identical number of
corrective phases** and the **identical simulated seconds** (``repr``-equal),
on local and remote sources alike.  Both hold by construction: batches
consume the same per-source tuple counts at every poll boundary as
tuple-at-a-time execution, read only tuples that have arrived by the clock's
reading and stall only where the tuple rule stalls (see
``PipelinedPlan._read_schedule`` and ``step_batch``), and the simulated
clock that drives polling is a function of the work done and those stalls.

All aggregate input values are integers, so grouped sums compare exactly
regardless of the order in which each engine folds them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from helpers import reference_spja

from repro.baselines.static_executor import StaticExecutor
from repro.core.corrective import CorrectiveQueryProcessor
from repro.engine.pipelined import PipelinedExecutor
from repro.optimizer.plans import JoinTree
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.relation import Relation
from repro.serving.sharded import ShardedQueryServer
from repro.sources.network import PhasedRateNetworkModel
from repro.sources.remote import RemoteSource
from workload_generator import DifferentialWorkload, generate_workload

#: Batch sizes every differential case is executed with (issue-mandated).
BATCH_SIZES = (1, 7, 64, 1024)

#: Batch sizes the compiled engine column runs at (a subset keeps the base
#: suite's runtime in check; the dedicated compiled differential suite in
#: ``test_differential_compiled.py`` covers the full equivalence contract).
COMPILED_BATCH_SIZES = (7, 64)

#: Re-optimization poll interval for the corrective runs.  Small enough that
#: even the tiny randomized workloads get polled several times, so plan
#: switches actually happen on a healthy fraction of the seeds.
POLLING_INTERVAL = 0.002

#: Tuples between clock checks (shared by every corrective configuration).
POLL_STEP_LIMIT = 40

#: The orders a served workload mix is submitted in.  Reversing it changes
#: the shard each session lands in and the sessions that run, and are
#: absorbed into the statistics cache, before it: neither may show in any
#: served answer.
SUBMISSION_ORDERS = ("forward", "reversed")



def order_workload_variant(
    workload: DifferentialWorkload, variant: str
) -> tuple[DifferentialWorkload, dict[str, str]]:
    """Derive a sorted / perturbed-sorted variant of a generated workload.

    Each relation is re-ordered on one of its join attributes — the foreign
    key when it has one (so child⋈parent joins line up sorted streams on
    both sides), else its primary key.  ``variant``:

    * ``"sorted"`` — rows exactly sorted on the chosen attribute;
    * ``"perturbed"`` — sorted, then ~5% of adjacent pairs swapped (a
      near-sorted stream that stays within the order detectors' tolerance).

    Returns the re-ordered workload plus the chosen sort attribute per
    relation (for registering ordering promises).  Row *multisets* are
    unchanged, so the original workload's reference results still apply.
    """
    if variant not in ("sorted", "perturbed"):
        raise ValueError(f"unknown order variant {variant!r}")
    rng = random.Random(workload.seed * 7919 + 13)
    relations: dict[str, Relation] = {}
    sort_attrs: dict[str, str] = {}
    for name, relation in workload.relations.items():
        names = relation.schema.names
        attr = next((a for a in names if a.endswith("_fk")), names[0])
        position = relation.schema.position(attr)
        rows = sorted(relation.rows, key=lambda row: row[position])
        if variant == "perturbed" and len(rows) > 3:
            for _ in range(max(1, len(rows) // 20)):
                i = rng.randrange(len(rows) - 1)
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
        relations[name] = Relation(name, relation.schema, rows)
        sort_attrs[name] = attr
    ordered = DifferentialWorkload(
        seed=workload.seed,
        query=workload.query,
        relations=relations,
        remote=workload.remote,
    )
    return ordered, sort_attrs


def order_catalog(
    workload: DifferentialWorkload,
    sort_attrs: dict[str, str],
    with_promises: bool,
) -> Catalog:
    """Catalog for an ordered workload, optionally carrying sort promises."""
    from repro.relational.catalog import TableStatistics

    catalog = Catalog()
    for name, relation in workload.relations.items():
        statistics = None
        if with_promises:
            statistics = TableStatistics(sorted_on=(sort_attrs[name],))
        catalog.register(name, relation.schema, statistics)
    return catalog


def _bad_initial_tree(workload: DifferentialWorkload) -> JoinTree:
    """A deliberately poor left-deep order: largest relations first (kept
    connected), so the corrective processor has something worth switching
    away from."""
    query = workload.query
    order = sorted(query.relations, key=lambda name: -len(workload.relations[name]))
    chosen = [order[0]]
    remaining = [name for name in order[1:]]
    while remaining:
        for name in list(remaining):
            if query.predicates_between(frozenset(chosen), frozenset((name,))):
                chosen.append(name)
                remaining.remove(name)
                break
        else:  # pragma: no cover - generated join graphs are connected
            chosen.extend(remaining)
            break
    return JoinTree.left_deep(chosen)


def _canonical_names(workload: DifferentialWorkload) -> list[str]:
    """Canonical column order for a workload's results.

    The reference evaluation's layout: relation schemas concatenated in
    query order for SPJ queries; group attributes plus aggregate aliases for
    aggregation queries (a layout every engine shares).
    """
    query = workload.query
    if query.aggregation is None:
        names: list[str] = []
        for relation in query.relations:
            names.extend(workload.relations[relation].schema.names)
        return names
    return list(query.aggregation.output_attributes)


def _canonical_multiset(rows, schema_names, canonical_names) -> Counter:
    """Multiset of rows with columns permuted into the canonical order.

    Different join trees emit SPJ result tuples with the same values in
    different column orders (each engine's layout follows its tree); since
    attribute names are globally unique, permuting by name makes the
    multisets directly comparable.
    """
    schema_names = tuple(schema_names)
    canonical_names = tuple(canonical_names)
    if schema_names == canonical_names:
        return Counter(rows)
    positions = [schema_names.index(name) for name in canonical_names]
    return Counter(tuple(row[p] for p in positions) for row in rows)


@dataclass
class EngineObservables:
    """Everything the engine-equivalence contracts pin for one run."""

    multiset: Counter
    metrics: dict[str, int]
    simulated_seconds: float
    phases: int


def run_solo_corrective(
    workload: DifferentialWorkload,
    batch_size: int | None = None,
    engine_mode: str = "interpreted",
    catalog: Catalog | None = None,
    sources: dict | None = None,
    initial_tree: JoinTree | None = None,
    polling_interval: float = POLLING_INTERVAL,
    poll_step_limit: int = POLL_STEP_LIMIT,
    bad_plan: bool = True,
    **processor_options,
):
    """One solo corrective run of a differential workload.

    The parameterized runner behind every solo differential column: engine
    mode, batch size, and any extra processor options (``order_adaptive``,
    ``rate_adaptive``, …) vary; the bad initial tree (unless ``bad_plan`` is
    false: then the optimizer's), polling cadence and canonicalization are
    shared.  Returns ``(report, EngineObservables)``.
    """
    query = workload.query
    if initial_tree is None and bad_plan:
        initial_tree = _bad_initial_tree(workload)
    report = CorrectiveQueryProcessor(
        catalog if catalog is not None else workload.catalog(),
        sources if sources is not None else workload.sources(),
        polling_interval_seconds=polling_interval,
        batch_size=batch_size,
        engine_mode=engine_mode,
        **processor_options,
    ).execute(
        query,
        initial_tree=initial_tree,
        poll_step_limit=poll_step_limit,
    )
    observables = EngineObservables(
        multiset=_canonical_multiset(
            report.rows, report.schema.names, _canonical_names(workload)
        ),
        metrics=report.metrics.as_dict(),
        simulated_seconds=report.simulated_seconds,
        phases=report.num_phases,
    )
    return report, observables


@dataclass
class DifferentialResult:
    """Everything a differential case produced, for assertions and reports."""

    seed: int
    workload: DifferentialWorkload
    reference: Counter
    row_multisets: dict[str, Counter] = field(default_factory=dict)
    phase_counts: dict[str, int] = field(default_factory=dict)
    #: ``repr`` of each corrective column's simulated seconds
    clocks: dict[str, str] = field(default_factory=dict)

    @property
    def uses_aggregation(self) -> bool:
        return self.workload.query.aggregation is not None

    @property
    def max_phases(self) -> int:
        return max(self.phase_counts.values(), default=0)


def run_differential_case(seed: int) -> DifferentialResult:
    """Run one seed through every engine configuration and compare."""
    workload = generate_workload(seed)
    query = workload.query
    catalog = workload.catalog()
    fixed_tree = JoinTree.left_deep(query.relations)
    bad_tree = _bad_initial_tree(workload)

    canonical_names = _canonical_names(workload)

    result = DifferentialResult(
        seed=seed,
        workload=workload,
        reference=Counter(reference_spja(query, workload.relations)),
    )

    static_report = StaticExecutor(catalog, workload.sources()).execute(query)
    result.row_multisets["static"] = _canonical_multiset(
        static_report.rows,
        canonical_names
        if static_report.schema is None
        else static_report.schema.names,
        canonical_names,
    )

    engine_columns = [("pipelined", None, "interpreted")] + [
        (f"batched[{batch_size}]", batch_size, "interpreted")
        for batch_size in BATCH_SIZES
    ] + [
        (f"compiled[{batch_size}]", batch_size, "compiled")
        for batch_size in COMPILED_BATCH_SIZES
    ]
    for label, batch_size, engine_mode in engine_columns:
        rows, plan = PipelinedExecutor(
            workload.sources(), batch_size=batch_size, engine_mode=engine_mode
        ).execute(query, fixed_tree)
        names = (
            canonical_names
            if query.aggregation is not None
            else plan.output_schema.names
        )
        result.row_multisets[label] = _canonical_multiset(
            rows, names, canonical_names
        )

    corrective_columns = [("corrective", None, "interpreted")] + [
        (f"corrective[{batch_size}]", batch_size, "interpreted")
        for batch_size in BATCH_SIZES
    ] + [
        (f"corrective-compiled[{batch_size}]", batch_size, "compiled")
        for batch_size in COMPILED_BATCH_SIZES
    ]
    for label, batch_size, engine_mode in corrective_columns:
        _, observables = run_solo_corrective(
            workload,
            batch_size=batch_size,
            engine_mode=engine_mode,
            catalog=catalog,
            initial_tree=bad_tree,
        )
        result.row_multisets[label] = observables.multiset
        result.phase_counts[label] = observables.phases
        result.clocks[label] = repr(observables.simulated_seconds)

    return result


@dataclass
class CompiledDifferentialResult:
    """Interpreted-vs-compiled observables for one workload (solo corrective)."""

    seed: int
    workload: DifferentialWorkload
    reference: Counter
    interpreted: EngineObservables
    compiled: EngineObservables


def run_compiled_differential_case(
    seed: int, batch_size: int = 64
) -> CompiledDifferentialResult:
    """Run one workload through corrective processing with both engines.

    Both runs start from the same deliberately bad plan with identical
    polling parameters, so they traverse the same phases — the compiled
    engine must match the interpreted batched engine **bit for bit**:
    result multiset, every work counter, simulated seconds (local *and*
    remote sources — the compiled engine preserves even the clock-charge
    granularity) and the number of corrective phases.
    """
    workload = generate_workload(seed)
    query = workload.query
    observed = {}
    for engine_mode in ("interpreted", "compiled"):
        _, observed[engine_mode] = run_solo_corrective(
            workload, batch_size=batch_size, engine_mode=engine_mode
        )
    return CompiledDifferentialResult(
        seed=seed,
        workload=workload,
        reference=Counter(reference_spja(query, workload.relations)),
        interpreted=observed["interpreted"],
        compiled=observed["compiled"],
    )


def assert_compiled_differential_case(result: CompiledDifferentialResult) -> None:
    """Assert the full bit-identical contract for one solo compiled case."""
    name = result.workload.query.name
    assert result.interpreted.multiset == result.reference, (
        f"seed {result.seed}: interpreted corrective run disagrees with the "
        f"reference oracle on {name}"
    )
    assert result.compiled.multiset == result.reference, (
        f"seed {result.seed}: compiled corrective run disagrees with the "
        f"reference oracle on {name}"
    )
    assert result.compiled.metrics == result.interpreted.metrics, (
        f"seed {result.seed}: compiled work counters diverge on {name}: "
        f"{result.compiled.metrics} vs {result.interpreted.metrics}"
    )
    assert result.compiled.simulated_seconds == result.interpreted.simulated_seconds, (
        f"seed {result.seed}: compiled simulated seconds diverge on {name} "
        f"({result.compiled.simulated_seconds!r} vs "
        f"{result.interpreted.simulated_seconds!r})"
    )
    assert result.compiled.phases == result.interpreted.phases, (
        f"seed {result.seed}: compiled phase count diverges on {name} "
        f"({result.compiled.phases} vs {result.interpreted.phases})"
    )


@dataclass
class CompiledServingDifferentialResult:
    """Interpreted-vs-compiled comparison of one whole serving run."""

    seeds: tuple[int, ...]
    order: str
    batch_size: int
    workloads: list[DifferentialWorkload]
    references: list[Counter]
    interpreted: list[EngineObservables]
    compiled: list[EngineObservables]
    interpreted_makespan: float
    compiled_makespan: float


def run_compiled_serving_differential_case(
    seeds, order: str = "forward", batch_size: int = 64
) -> CompiledServingDifferentialResult:
    """Serve the same workload mix with both engines and collect observables.

    Each engine's served sessions are held bit-identical to their solo runs
    (:func:`serve_against_solo`); because the compiled engine charges
    bit-identical work at bit-identical points, every served query must
    also report identical answers, counters, simulated timings and phase
    counts across the two engines — the whole serving run is replayed
    exactly.
    """
    workloads = [
        generate_workload(seed, name_prefix=f"w{index}_")
        for index, seed in enumerate(seeds)
    ]
    references = [
        Counter(reference_spja(workload.query, workload.relations))
        for workload in workloads
    ]

    observed: dict[str, ShardedDifferentialResult] = {
        engine_mode: serve_against_solo(
            workloads, order, batch_size=batch_size, engine_mode=engine_mode
        )
        for engine_mode in ("interpreted", "compiled")
    }
    return CompiledServingDifferentialResult(
        seeds=tuple(seeds),
        order=order,
        batch_size=batch_size,
        workloads=workloads,
        references=references,
        interpreted=observed["interpreted"].served,
        compiled=observed["compiled"].served,
        interpreted_makespan=observed["interpreted"].report.makespan,
        compiled_makespan=observed["compiled"].report.makespan,
    )


def assert_compiled_serving_differential_case(
    result: CompiledServingDifferentialResult,
) -> None:
    """Assert the bit-identical contract for one served workload mix."""
    for workload, reference, interpreted, compiled in zip(
        result.workloads, result.references, result.interpreted, result.compiled
    ):
        name = workload.query.name
        context = (
            f"{result.order} submission, batch_size={result.batch_size}, "
            f"query {name} (seed {workload.seed})"
        )
        assert interpreted.multiset == reference, (
            f"{context}: interpreted served answer disagrees with the oracle"
        )
        assert compiled.multiset == reference, (
            f"{context}: compiled served answer disagrees with the oracle"
        )
        assert compiled.metrics == interpreted.metrics, (
            f"{context}: served work counters diverge"
        )
        assert compiled.simulated_seconds == interpreted.simulated_seconds, (
            f"{context}: served simulated seconds diverge"
        )
        assert compiled.phases == interpreted.phases, (
            f"{context}: served phase counts diverge"
        )
    assert result.compiled_makespan == result.interpreted_makespan, (
        f"{result.order} submission: serving makespans diverge "
        f"({result.compiled_makespan!r} vs {result.interpreted_makespan!r})"
    )


def rate_collapse_setup(
    workload: DifferentialWorkload, promised_rate: float = 4000.0
) -> tuple[Catalog, dict[str, object]]:
    """Every source behind a rate-promising link that collapses then recovers.

    The catalog carries each source's ``promised_rate`` and the network
    delivers a 2% trickle before recovering at full rate, so the
    source-rate policy's collapse detector fires on most seeds — the rate
    differential suite then pins that whatever it does (read demotions,
    rate-aware plan switches) never changes answers.
    """
    catalog = Catalog()
    sources: dict[str, object] = {}
    for index, (name, relation) in enumerate(workload.relations.items()):
        network = PhasedRateNetworkModel(
            [(0.004 + 0.002 * index, 0.02 * promised_rate)],
            tail_rate=promised_rate,
            latency=0.0005,
        )
        sources[name] = RemoteSource(
            relation, network, promised_rate=promised_rate
        )
        catalog.register(
            name, relation.schema, TableStatistics(promised_rate=promised_rate)
        )
    return catalog, sources


@dataclass
class RateDifferentialResult:
    """Static-vs-rate-adaptive observables for one collapsed-source workload."""

    seed: int
    workload: DifferentialWorkload
    reference: Counter
    static: EngineObservables
    adaptive: EngineObservables
    rate_switches: int
    reprioritizations: int


def run_rate_differential_case(
    seed: int, batch_size: int | None = 64
) -> RateDifferentialResult:
    """Run one workload over collapsing sources with and without rate adaptivity.

    Both runs start from the same deliberately bad plan; the adaptive run's
    result multiset must match the static run and the reference oracle no
    matter what the source-rate policy decided to do.
    """
    workload = generate_workload(seed)
    observed = {}
    details = {}
    for rate_adaptive in (False, True):
        catalog, sources = rate_collapse_setup(workload)
        report, observables = run_solo_corrective(
            workload,
            batch_size=batch_size,
            catalog=catalog,
            sources=sources,
            rate_adaptive=rate_adaptive,
        )
        observed[rate_adaptive] = observables
        details[rate_adaptive] = report.details.get("adaptation", {})
    switches = [
        switch
        for switch in details[True].get("switches", [])
        if switch["policy"] == "source_rate"
    ]
    return RateDifferentialResult(
        seed=seed,
        workload=workload,
        reference=Counter(reference_spja(workload.query, workload.relations)),
        static=observed[False],
        adaptive=observed[True],
        rate_switches=len(switches),
        reprioritizations=details[True].get("reprioritizations", 0),
    )


def assert_rate_differential_case(result: RateDifferentialResult) -> None:
    """Assert the answers-never-change contract for one rate case."""
    name = result.workload.query.name
    assert result.static.multiset == result.reference, (
        f"seed {result.seed}: static run over collapsing sources disagrees "
        f"with the reference oracle on {name}"
    )
    assert result.adaptive.multiset == result.reference, (
        f"seed {result.seed}: rate-adaptive run disagrees with the reference "
        f"oracle on {name} (switches={result.rate_switches}, "
        f"reprioritizations={result.reprioritizations})"
    )


def mirror_outage_setup(
    workload: DifferentialWorkload, promised_rate: float = 4000.0
) -> tuple[Catalog, dict[str, object]]:
    """Every source: healthy opening burst, then a sustained outage — with a
    healthy mirror registered on each primary.

    The primary delivers at full promised rate for a few milliseconds, then
    collapses into a deep trickle (0.5% of the promise) for the rest of the
    run; a replica behind a healthy constant-rate link is registered as its
    mirror.  With ``failover_adaptive=True`` the mirror-failover policy
    detects the sustained outage and resumes the remainder of each stream
    from the mirror; the differential suite pins that the stitched
    partial-primary + resumed-mirror reads answer bit-identically to the
    no-failover run and the brute-force oracle.
    """
    catalog = Catalog()
    sources: dict[str, object] = {}
    for index, (name, relation) in enumerate(workload.relations.items()):
        outage_network = PhasedRateNetworkModel(
            [
                (0.003 + 0.001 * index, promised_rate),
                (30.0, 0.005 * promised_rate),
            ],
            tail_rate=promised_rate,
            latency=0.0005,
        )
        mirror_network = PhasedRateNetworkModel(
            [(0.001, promised_rate)],
            tail_rate=promised_rate,
            latency=0.0005,
        )
        primary = RemoteSource(relation, outage_network, promised_rate=promised_rate)
        primary.register_mirror(
            RemoteSource(
                relation,
                mirror_network,
                name=f"{name}_mirror",
                promised_rate=promised_rate,
            )
        )
        sources[name] = primary
        catalog.register(
            name, relation.schema, TableStatistics(promised_rate=promised_rate)
        )
    return catalog, sources


@dataclass
class MirrorDifferentialResult:
    """No-failover vs mirror-failover observables for one outage workload."""

    seed: int
    workload: DifferentialWorkload
    reference: Counter
    static: EngineObservables
    failover: EngineObservables
    failovers: int
    failover_details: list[dict]


def run_mirror_differential_case(
    seed: int, batch_size: int | None = 64
) -> MirrorDifferentialResult:
    """Run one workload over outage-bound mirrored sources with and without
    mirror failover.

    Both runs start from the same deliberately bad plan; the failover run's
    result multiset must match the no-failover run and the reference oracle
    no matter which sources failed over (only arrival times may differ).
    """
    workload = generate_workload(seed)
    observed = {}
    details = {}
    for failover_adaptive in (False, True):
        catalog, sources = mirror_outage_setup(workload)
        report, observables = run_solo_corrective(
            workload,
            batch_size=batch_size,
            catalog=catalog,
            sources=sources,
            failover_adaptive=failover_adaptive,
            failover_stall_seconds=0.005,
        )
        observed[failover_adaptive] = observables
        details[failover_adaptive] = report.details.get("adaptation", {})
    failover_details = details[True].get("failovers", [])
    return MirrorDifferentialResult(
        seed=seed,
        workload=workload,
        reference=Counter(reference_spja(workload.query, workload.relations)),
        static=observed[False],
        failover=observed[True],
        failovers=len(failover_details),
        failover_details=failover_details,
    )


def assert_mirror_differential_case(result: MirrorDifferentialResult) -> None:
    """Assert the answers-never-change contract for one mirror-failover case."""
    name = result.workload.query.name
    assert result.static.multiset == result.reference, (
        f"seed {result.seed}: no-failover run over outage sources disagrees "
        f"with the reference oracle on {name}"
    )
    assert result.failover.multiset == result.reference, (
        f"seed {result.seed}: mirror-failover run disagrees with the "
        f"reference oracle on {name} (failovers={result.failover_details})"
    )


def assert_differential_case(result: DifferentialResult) -> None:
    """Assert the equivalence contract for one differential case."""
    for label, multiset in result.row_multisets.items():
        assert multiset == result.reference, (
            f"seed {result.seed}: engine {label!r} disagrees with the "
            f"reference evaluation on query {result.workload.query.name} "
            f"({len(multiset)} distinct rows vs {len(result.reference)}); "
            f"query:\n{result.workload.query.describe()}"
        )
    assert all(count >= 1 for count in result.phase_counts.values())
    phase_counts = set(result.phase_counts.values())
    assert len(phase_counts) <= 1, (
        f"seed {result.seed}: corrective phase counts diverge across "
        f"batch sizes: {result.phase_counts} for query "
        f"{result.workload.query.name}"
    )
    assert len(set(result.clocks.values())) == 1, (
        f"seed {result.seed}: corrective simulated seconds diverge "
        f"across engine modes: {result.clocks} for query "
        f"{result.workload.query.name}"
    )


def _schemas_only(workload: DifferentialWorkload) -> tuple[Catalog, dict]:
    """A workload's own catalog (schemas only) and sources."""
    return workload.catalog(), workload.sources()


def run_sharded_workloads(
    workloads: list[DifferentialWorkload],
    order: str = "forward",
    workers: int = 1,
    batch_size: int | None = None,
    engine_mode: str = "interpreted",
    start_method: str | None = "inline",
    setup=_schemas_only,
    bad_plan: bool = True,
    **options,
):
    """One serving run over prefix-namespaced differential workloads.

    The workload mix is admitted to one
    :class:`~repro.serving.sharded.ShardedQueryServer` with ``workers``
    shards (in-process by default), whose pool merges what ``setup`` gives
    each workload (catalog entries and sources); each session is forced to
    start from its deliberately bad join order unless ``bad_plan`` is false.
    ``order`` (one of :data:`SUBMISSION_ORDERS`) is the order the mix is
    submitted in.  Returns ``(ServingReport, [EngineObservables])`` with one
    observables entry per workload, in the order of ``workloads``.
    """
    if order not in SUBMISSION_ORDERS:
        raise ValueError(f"unknown submission order {order!r}")
    catalog = Catalog()
    sources: dict[str, object] = {}
    for workload in workloads:
        sub_catalog, sub_sources = setup(workload)
        for name in workload.relations:
            catalog.register(
                name, sub_catalog.schema(name), sub_catalog.statistics(name)
            )
        sources.update(sub_sources)
    server = ShardedQueryServer(
        catalog,
        sources,
        workers=workers,
        batch_size=batch_size,
        quantum_tuples=POLL_STEP_LIMIT,
        polling_interval_seconds=POLLING_INTERVAL,
        engine_mode=engine_mode,
        start_method=start_method,
        **options,
    )
    reverse = order == "reversed"
    for workload in reversed(workloads) if reverse else workloads:
        server.submit(
            workload.query,
            initial_tree=_bad_initial_tree(workload) if bad_plan else None,
            label=workload.query.name,
        )
    report = server.run()
    assert len(report.served) == len(workloads)
    observables = []
    served_queries = reversed(report.served) if reverse else report.served
    for served, workload in zip(served_queries, workloads):
        assert served.query_name == workload.query.name
        observables.append(
            EngineObservables(
                multiset=_canonical_multiset(
                    served.rows,
                    served.report.schema.names,
                    _canonical_names(workload),
                ),
                metrics=served.report.metrics.as_dict(),
                simulated_seconds=served.report.simulated_seconds,
                phases=served.phases,
            )
        )
    return report, observables


@dataclass
class ShardedDifferentialResult:
    """One served-vs-solo differential run, for assertions and meta-tests."""

    order: str
    workers: int
    batch_size: int | None
    engine_mode: str
    start_method: str | None
    workloads: list[DifferentialWorkload]
    report: object  # repro.serving.sharded.ServingReport
    solo: list[EngineObservables]
    served: list[EngineObservables]

    @property
    def num_remote(self) -> int:
        return sum(1 for workload in self.workloads if workload.remote)

    @property
    def served_phase_counts(self) -> list[int]:
        return [observables.phases for observables in self.served]


def serve_against_solo(
    workloads: list[DifferentialWorkload],
    order: str = "forward",
    workers: int = 1,
    batch_size: int | None = None,
    engine_mode: str = "interpreted",
    start_method: str | None = "inline",
    setup=_schemas_only,
    bad_plan: bool = True,
    **options,
) -> ShardedDifferentialResult:
    """Serve several differential workloads; verify each answer
    **bit-identically** against its solo corrective run.

    Every session is one plain corrective execution on its own clock,
    exactly like solo execution, so not just multisets but work counters,
    simulated seconds (``repr``-equal) *and* phase counts must equal the
    solo run with identical parameters (the same ``setup``, ``bad_plan`` and
    processor ``options``), on every worker count, submission order, engine
    mode and start method.  Every solo run must also match the brute-force
    oracle.
    """
    solo_observables = []
    for workload in workloads:
        reference = Counter(reference_spja(workload.query, workload.relations))
        catalog, sources = setup(workload)
        _, solo = run_solo_corrective(
            workload,
            batch_size=batch_size,
            engine_mode=engine_mode,
            catalog=catalog,
            sources=sources,
            bad_plan=bad_plan,
            **options,
        )
        assert solo.multiset == reference, (
            f"solo corrective run disagrees with the reference oracle on "
            f"query {workload.query.name} (seed {workload.seed})"
        )
        solo_observables.append(solo)

    report, served_observables = run_sharded_workloads(
        workloads,
        order,
        workers,
        batch_size=batch_size,
        engine_mode=engine_mode,
        start_method=start_method,
        setup=setup,
        bad_plan=bad_plan,
        **options,
    )
    for served, solo, workload in zip(
        served_observables, solo_observables, workloads
    ):
        context = (
            f"workers={workers}, {order} submission, batch_size={batch_size}, "
            f"engine={engine_mode}, start={start_method!r}: served query "
            f"{workload.query.name!r} (seed {workload.seed})"
        )
        assert served.multiset == solo.multiset, (
            f"{context} disagrees with its solo/reference multiset; query:\n"
            f"{workload.query.describe()}"
        )
        assert served.metrics == solo.metrics, (
            f"{context}: work counters diverge from solo"
        )
        assert served.simulated_seconds == solo.simulated_seconds, (
            f"{context}: simulated seconds diverge from solo "
            f"({served.simulated_seconds!r} vs {solo.simulated_seconds!r})"
        )
        assert served.phases == solo.phases, (
            f"{context}: phase counts diverge from solo "
            f"({served.phases} vs {solo.phases})"
        )
    return ShardedDifferentialResult(
        order=order,
        workers=workers,
        batch_size=batch_size,
        engine_mode=engine_mode,
        start_method=start_method,
        workloads=workloads,
        report=report,
        solo=solo_observables,
        served=served_observables,
    )


def run_sharded_differential_case(
    seeds,
    order: str,
    workers: int,
    batch_size: int | None = None,
    engine_mode: str = "interpreted",
    start_method: str | None = None,
) -> ShardedDifferentialResult:
    """:func:`serve_against_solo` over one generated workload per seed,
    relation names prefixed ``w<i>_`` so they coexist in one catalog."""
    workloads = [
        generate_workload(seed, name_prefix=f"w{index}_")
        for index, seed in enumerate(seeds)
    ]
    return serve_against_solo(
        workloads,
        order,
        workers,
        batch_size=batch_size,
        engine_mode=engine_mode,
        start_method=start_method,
    )


@dataclass
class PartitionDifferentialResult:
    """One partition-parallel-vs-solo differential run."""

    seed: int
    partitions: int
    workers: int
    batch_size: int | None
    engine_mode: str
    workload: DifferentialWorkload
    reference: Counter
    solo: EngineObservables
    merged: Counter
    report: object  # repro.serving.sharded.ServingReport

    @property
    def partitioned(self):
        return self.report.partitioned[0]


def run_partition_differential_case(
    seed: int,
    partitions: int,
    workers: int = 2,
    batch_size: int | None = None,
    engine_mode: str = "interpreted",
    start_method: str | None = None,
    workload: DifferentialWorkload | None = None,
) -> PartitionDifferentialResult:
    """Execute one local workload partition-parallel; verify the merged
    multiset against the solo run and the reference oracle.

    Both join inputs of the heaviest edge are hash-partitioned, one fragment
    session runs per partition (spread round-robin across ``workers``
    shards), and the front-end merges fragment outputs at the root —
    concatenation for SPJ queries, per-group partial-aggregate folding for
    aggregation queries (avg decomposed into sum/count partials).  The merged
    multiset must equal the unpartitioned answer exactly.
    """
    if workload is None:
        workload = generate_workload(seed)
    assert not workload.remote, (
        "partition differential cases need materialized local relations"
    )
    query = workload.query
    reference = Counter(reference_spja(query, workload.relations))
    _, solo = run_solo_corrective(
        workload, batch_size=batch_size, engine_mode=engine_mode
    )
    assert solo.multiset == reference, (
        f"solo corrective run disagrees with the reference oracle on "
        f"query {query.name} (seed {seed})"
    )

    server = ShardedQueryServer(
        workload.catalog(),
        workload.sources(),
        workers=workers,
        batch_size=batch_size,
        quantum_tuples=POLL_STEP_LIMIT,
        polling_interval_seconds=POLLING_INTERVAL,
        engine_mode=engine_mode,
        start_method=start_method,
    )
    label = server.submit_partitioned(query, partitions, label=query.name)
    report = server.run()
    assert len(report.partitioned) == 1 and report.partitioned[0].label == label
    merged_query = report.partitioned[0]
    assert len(merged_query.fragments) == partitions
    merged = _canonical_multiset(
        merged_query.rows, merged_query.schema.names, _canonical_names(workload)
    )
    assert merged == reference, (
        f"seed {seed}, partitions={partitions}, workers={workers}, "
        f"batch_size={batch_size}, engine={engine_mode}: partition-parallel "
        f"merge disagrees with the reference oracle on {query.name} "
        f"({len(merged)} distinct rows vs {len(reference)}); query:\n"
        f"{query.describe()}"
    )
    return PartitionDifferentialResult(
        seed=seed,
        partitions=partitions,
        workers=workers,
        batch_size=batch_size,
        engine_mode=engine_mode,
        workload=workload,
        reference=reference,
        solo=solo,
        merged=merged,
        report=report,
    )
