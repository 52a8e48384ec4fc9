"""Corrective query processing (Section 4).

The corrective query processor executes an SPJA query as a sequence of
*phases*: it starts with the optimizer's initial plan, monitors execution,
periodically consults the adaptivity kernel, and — when a policy proposes a
better configuration — suspends the current plan at a consistent point,
routes the remaining source data to the new plan, and finally runs a
stitch-up phase that joins tuples across phases.  The final GROUP BY is
shared by every phase and by stitch-up (Figure 1), so answers accumulate in
one place regardless of how many plans contributed.

Since the adaptivity-kernel refactor this module owns only the *phase and
stitch-up mechanics*: building phase plans, running chunks, accounting, and
stitching up.  Every adaptation decision — cost-based plan switching,
order-adaptive strategy selection, source-rate reactions — lives in
:mod:`repro.adaptivity` policies consulted through one
:class:`~repro.adaptivity.controller.AdaptationController`; registering a
new policy requires no change here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.adaptivity import (
    AdaptationController,
    JoinStrategyPolicy,
    MirrorFailoverPolicy,
    PlanSwitchPolicy,
    SourceRatePolicy,
)
from repro.core.monitor import ExecutionMonitor
from repro.core.options import ProcessorOptions, resolve_options
from repro.core.phases import PhaseManager, PhaseRecord
from repro.core.stitchup import StitchUpExecutor, StitchUpReport
from repro.engine.collector import collector_paused
from repro.engine.compiled import fused_output_sink
from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.operators.aggregate import GroupAccumulator
from repro.engine.pipelined import PipelinedPlan, SourceCursor
from repro.engine.state.registry import StateRegistry
from repro.io.wallclock import wall_now
from repro.optimizer.enumerator import Optimizer
from repro.optimizer.plans import JoinTree
from repro.optimizer.statistics import ObservedStatistics
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.tuples import TupleAdapter


@dataclass
class CorrectiveExecutionReport:
    """Everything a corrective execution produced, for answers and analysis."""

    query_name: str
    rows: list[tuple]
    schema: Schema
    phases: list[PhaseRecord]
    stitchup: StitchUpReport | None
    metrics: ExecutionMetrics
    simulated_seconds: float
    wall_seconds: float
    wait_seconds: float
    reoptimizer_polls: int
    details: dict = field(default_factory=dict)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def stitchup_seconds(self) -> float:
        return self.stitchup.simulated_seconds if self.stitchup else 0.0

    @property
    def reused_tuples(self) -> int:
        return self.stitchup.reused_tuples if self.stitchup else 0

    @property
    def discarded_tuples(self) -> int:
        return self.stitchup.discarded_tuples if self.stitchup else 0

    def work(self, cost_model: CostModel | None = None) -> float:
        return self.metrics.work(cost_model)


class CorrectiveQueryProcessor:
    """Adaptive-data-partitioning executor using sequential corrective phases."""

    def __init__(
        self,
        catalog: Catalog,
        sources: dict[str, object],
        cost_model: CostModel | None = None,
        options: ProcessorOptions | None = None,
        **knobs: Any,
    ) -> None:
        """The knobs are :class:`~repro.core.options.ProcessorOptions`
        fields: pass one ``options`` record, keywords, or both (keywords
        override the record's fields)."""
        self.options = options = resolve_options(options, knobs)
        self.catalog = catalog
        self.sources = dict(sources)
        self.cost_model = cost_model or CostModel()
        self.optimizer = Optimizer(catalog, self.cost_model)
        policies = []
        if options.order_adaptive:
            policies.append(JoinStrategyPolicy(catalog))
        if options.failover_adaptive:
            policies.append(
                MirrorFailoverPolicy(
                    catalog, stall_threshold_seconds=options.failover_stall_seconds
                )
            )
        if options.rate_adaptive:
            policies.append(SourceRatePolicy(catalog, self.cost_model))
        policies.append(PlanSwitchPolicy(self.cost_model, options.switch_threshold))
        self.adaptation = AdaptationController(policies)

    @property
    def reoptimizer(self):
        """The plan-switch policy's re-optimizer (None without that policy)."""
        policy = self.adaptation.policy(PlanSwitchPolicy.name)
        return policy.reoptimizer if policy is not None else None

    # -- public API ------------------------------------------------------------------

    @collector_paused()
    def execute(
        self,
        query: SPJAQuery,
        initial_tree: JoinTree | None = None,
        poll_step_limit: int = 200,
        seed_statistics: ObservedStatistics | None = None,
    ) -> CorrectiveExecutionReport:
        """Run ``query`` with corrective query processing.

        ``initial_tree`` overrides the optimizer's initial choice (useful for
        experiments that deliberately start from a bad plan).
        ``poll_step_limit`` is the maximum number of source *tuples* between
        clock checks; it only bounds how coarsely the polling interval is
        honoured, not the semantics.  Batched execution clips its final batch
        to this boundary, so clock checks — and the monitor observations they
        trigger — happen at the same tuple positions for every batch size.
        Each poll window is one ``run_chunk(poll_step_limit, until=next_poll)``
        call, at the chunk boundaries a loop of single chunks would take.

        ``seed_statistics`` pre-populates the execution monitor with
        observations learned elsewhere — e.g. subexpression selectivities and
        multiplicative-join flags from a cross-query statistics cache — so
        the very first re-optimization poll already has priors.  The
        monitor's own observations overwrite seeded values as data flows.
        """
        if poll_step_limit < 1:
            raise ValueError(f"poll_step_limit must be positive, got {poll_step_limit}")
        wall_start = wall_now()
        metrics = ExecutionMetrics()
        clock = SimulatedClock(self.cost_model)
        registry = StateRegistry()
        monitor = ExecutionMonitor(query)
        if seed_statistics is not None:
            monitor.observed.merge(seed_statistics)
        phase_manager = PhaseManager()

        options = self.options
        prefetch = None
        if options.batch_size is not None:
            prefetch = max(options.batch_size, SourceCursor.DEFAULT_PREFETCH)
        cursors = {
            name: SourceCursor(name, self.sources[name], prefetch=prefetch)
            for name in query.relations
        }

        # Open the adaptation run: policies attach their instrumentation
        # (order detectors, promised-ordering seeds, rate windows) here.
        run = self.adaptation.begin(
            query, self.catalog, monitor=monitor, cursors=cursors, sources=self.sources
        )

        # Ordering knowledge is gathered once per phase, when it begins; phase
        # 0's also picks the initial plan.
        ordering = run.current_ordering()
        if initial_tree is not None:
            current_tree = initial_tree
        else:
            current_tree = self.optimizer.optimize_tree(query, ordering=ordering)
        phase_algorithms: list[dict[str, str]] = []
        peak_state_tuples = 0

        # Canonical output layout: the first phase's join output schema.  All
        # later phases and the stitch-up adapt their outputs to this layout so
        # the shared group-by sees a single consistent schema (Section 3.2).
        canonical_schema: Schema | None = None
        accumulator: GroupAccumulator | None = None
        collected: list[tuple] = []

        def attach_sinks(plan: PipelinedPlan) -> None:
            """Point the plan's output (tuple and batch) at the shared group-by."""
            nonlocal canonical_schema, accumulator
            if canonical_schema is None:
                canonical_schema = plan.output_schema
                if query.aggregation is not None:
                    accumulator = GroupAccumulator(
                        canonical_schema,
                        query.aggregation.group_attributes,
                        query.aggregation.aggregates,
                        input_is_partial=False,
                        metrics=metrics,
                    )
            adapter = TupleAdapter(plan.output_schema, canonical_schema)
            adapt = adapter.adapt
            if accumulator is not None:
                accumulate = accumulator.accumulate
                accumulate_batch = accumulator.accumulate_batch
                if adapter.is_identity:
                    plan.output.sink = accumulate
                    plan.output.sink_batch = accumulate_batch
                else:
                    plan.output.sink = lambda row: accumulate(adapt(row))
                    plan.output.sink_batch = lambda rows: accumulate_batch(
                        adapter.adapt_many(rows)
                    )
                if plan.engine_mode == "compiled":
                    # Fuse the canonical-layout permutation into the group-by
                    # fold (no adapted tuples are materialized; charges and
                    # group states are identical — see make_batch_fold).
                    fold = fused_output_sink(accumulator, adapter)
                    if fold is not None:
                        plan.output.sink_batch = fold
            elif adapter.is_identity:
                plan.output.sink = collected.append
                plan.output.sink_batch = collected.extend
            else:
                append = collected.append
                plan.output.sink = lambda row: append(adapt(row))
                plan.output.sink_batch = lambda rows: collected.extend(
                    adapter.adapt_many(rows)
                )

        phase_id = 0
        while True:
            current_strategies = run.phase_strategies(current_tree, ordering)
            plan = PipelinedPlan(
                query,
                current_tree,
                cursors,
                output_sink=lambda row: None,  # replaced below once schema known
                phase_id=phase_id,
                metrics=metrics,
                clock=clock,
                cost_model=self.cost_model,
                batch_size=options.batch_size,
                join_strategies=current_strategies,
                engine_mode=options.engine_mode,
            )
            if run.read_priorities:
                plan.read_priorities = dict(run.read_priorities)
            phase_algorithms.append(
                {
                    " ⋈ ".join(sorted(relations)): algorithm
                    for relations, algorithm in plan.join_algorithms().items()
                }
            )
            attach_sinks(plan)
            record = phase_manager.start_phase(current_tree, clock.now)
            switch_reason = ""

            while True:
                next_poll = clock.now + options.polling_interval_seconds
                progressed = False
                while clock.now < next_poll:
                    ran = plan.run_chunk(poll_step_limit, until=next_poll)
                    progressed = progressed or ran > 0
                    if plan.sources_exhausted or ran == 0:
                        break
                if plan.sources_exhausted:
                    break
                monitor.observe(plan, cursors)
                switch = run.poll(
                    plan=plan,
                    current_tree=current_tree,
                    current_strategies=current_strategies,
                    now=clock.now,
                    can_switch=phase_id + 1 < options.max_phases,
                )
                if switch is not None:
                    switch_reason = switch.reason
                    current_tree = switch.tree
                    break
                if not progressed:
                    # A windowful of zero progress means the phase is over.
                    break

            stats = plan.finish_phase()
            plan.register_state(registry)
            peak_state_tuples = max(peak_state_tuples, plan.peak_state_tuples())
            monitor.observe(plan, cursors)
            phase_manager.finish_current(
                ended_at=clock.now,
                steps=stats.steps,
                tuples_read=stats.tuples_read,
                outputs=plan.output.count,
                consumed_per_relation=stats.consumed_per_relation,
                work_units=stats.work_units,
                switch_reason=switch_reason,
            )

            if plan.sources_exhausted:
                break
            phase_id += 1
            ordering = run.current_ordering()

        # Stitch-up phase: join the cross-phase combinations.
        stitchup_report: StitchUpReport | None = None
        num_phases = phase_manager.phase_count
        if num_phases > 1 and canonical_schema is not None:
            stitchup = StitchUpExecutor(
                query,
                registry,
                num_phases,
                canonical_schema,
                accumulator if accumulator is not None else collected,
                metrics=metrics,
                clock=clock,
                cost_model=self.cost_model,
            )
            stitchup_report = stitchup.run()

        if accumulator is not None:
            rows = accumulator.results()
            schema = accumulator.output_schema
        else:
            rows = collected
            schema = canonical_schema if canonical_schema is not None else Schema(())

        wall_seconds = wall_now() - wall_start
        reoptimizer = self.reoptimizer
        return CorrectiveExecutionReport(
            query_name=query.name,
            rows=rows,
            schema=schema,
            phases=list(phase_manager.records),
            stitchup=stitchup_report,
            metrics=metrics,
            simulated_seconds=clock.now,
            wall_seconds=wall_seconds,
            wait_seconds=clock.wait_time,
            reoptimizer_polls=reoptimizer.invocations if reoptimizer else 0,
            details={
                "registry": registry.describe(),
                "monitor_polls": monitor.poll_count(),
                # The accumulated runtime observations, for cross-query
                # statistics sharing by the serving layer.
                "observed_statistics": monitor.observed,
                "seeded_statistics": seed_statistics is not None,
                # Physical join algorithm per node, per phase (shows
                # hash↔merge switches), and the peak resident join state.
                "phase_join_algorithms": phase_algorithms,
                "peak_state_tuples": peak_state_tuples,
                # What the adaptivity kernel saw and did during this run.
                "adaptation": run.describe(),
            },
        )
