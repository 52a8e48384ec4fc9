"""Push-based pipelined hash-join network.

This module implements Tukwila's default execution strategy for data
integration queries: a tree of symmetric (pipelined) hash joins fed tuple by
tuple from the data sources.  The crucial property for adaptive data
partitioning is that execution proceeds in discrete **steps** — one source
tuple is read and fully propagated through the join network before the next
step begins — so that between steps the plan is always in a consistent state
and can be suspended, monitored, or replaced (Section 4.1: "allow the plan to
reach a consistent state ... and switch to another plan").

The hash tables inside each join node double as the per-phase source
partitions and intermediate results; they are registered in the
:class:`~repro.engine.state.registry.StateRegistry` so the stitch-up phase
can reuse them (Section 3.4).  The network holds no reference cycle (see
:class:`PlanOutput`), so reference counting frees a replaced phase's plan.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Sequence

from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock
from repro.engine.pipelined_merge import PipelinedMergeJoinNode
from repro.engine.state.hash_table import HashTableState
from repro.engine.state.registry import StateRegistry, expression_signature
from repro.optimizer.plans import JoinTree, PlanError, PreAggPoint
from repro.relational.algebra import SPJAQuery
from repro.relational.expressions import (
    AttributeRef,
    Comparison,
    TruePredicate,
    conjunction,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.source import LocalSource


class SourceCursor:
    """Sequential read cursor over one source, shared across plan phases.

    The cursor remembers how many tuples have been consumed so that when
    corrective query processing switches plans, the next phase simply resumes
    reading where the previous phase stopped.  Sources are accessed strictly
    sequentially (the data integration access model of Section 3.5).

    Internally the cursor buffers one *prefetch chunk* ahead of the consumer
    in **columnar** form: a row sequence plus either a parallel arrival
    sequence or ``None`` when the whole chunk is immediately available
    (``arrival == 0.0`` for every row — the local-source common case).
    Chunks come from the source's ``open_stream_columns`` (one memoized
    schedule access and two slices per chunk, no per-tuple pair objects),
    so ``peek_arrival``/``read`` are plain indexing and the batch
    scheduler's reads are slicing: :meth:`read_batch` drains what has
    arrived by a bound and :meth:`read_run` what one source reads before a
    runner-up, each located with a ``bisect`` over the (non-decreasing)
    arrival column instead of a per-tuple scan.
    """

    DEFAULT_PREFETCH = 256

    def __init__(self, name: str, source, prefetch: int | None = None) -> None:
        self.name = name
        self.schema: Schema = source.schema
        self.prefetch = max(int(prefetch or self.DEFAULT_PREFETCH), 1)
        #: rate telemetry for the adaptivity kernel: the provider's claimed
        #: delivery rate (tuples/second, None when unpromised) and whether
        #: the stream crosses a network (both read once at open time so the
        #: hot read paths stay untouched)
        self.promised_rate: float | None = getattr(source, "promised_rate", None)
        self.is_remote: bool = getattr(source, "network", None) is not None
        #: delivered-count oracle (``now -> tuples arrived``), when the
        #: source can answer it (remote sources bisect their cached arrival
        #: schedule); ``None`` for plain local relations
        self.arrived_by = getattr(source, "arrived_by", None)
        if isinstance(source, Relation):
            source = LocalSource(source)
        self._chunks = iter(source.open_stream_columns(self.prefetch))
        self._rows: Sequence[tuple] = ()
        self._arrivals: Sequence[float] | None = ()
        self._pos = 0
        self.consumed = 0
        #: set by :meth:`_fill` — the one place that sees the stream end
        self.exhausted = False
        #: order detectors fed with every consumed tuple, keyed by attribute
        #: (empty unless :meth:`ensure_order_detector` was called, so the
        #: non-adaptive fast paths stay unchanged)
        self._order_detectors: dict[str, tuple[int, object]] = {}

    # -- order tracking ----------------------------------------------------------

    def ensure_order_detector(self, attribute: str, tolerance: float = 0.0):
        """Attach (idempotently) an order detector to ``attribute``.

        The detector observes every tuple consumed through this cursor — in
        stream order, regardless of batching — and persists across plan
        phases because the cursor itself does.  Returns the detector.
        """
        from repro.stats.order_detector import OrderDetector

        entry = self._order_detectors.get(attribute)
        if entry is None:
            entry = (self.schema.position(attribute), OrderDetector(tolerance=tolerance))
            self._order_detectors[attribute] = entry
        return entry[1]

    @property
    def order_detectors(self) -> dict[str, object]:
        """Attribute → detector mapping (read by the execution monitor)."""
        return {attr: entry[1] for attr, entry in self._order_detectors.items()}

    def _observe_order(self, row: tuple) -> None:
        for position, detector in self._order_detectors.values():
            detector.add(row[position])

    def _fill(self) -> bool:
        """Pull the next prefetch chunk into the buffer.

        Only called on an empty buffer, so the end of the stream is the
        cursor's exhaustion: marks it and returns False.
        """
        if self.exhausted:
            return False
        while True:
            try:
                rows, arrivals = next(self._chunks)
            except StopIteration:
                self.exhausted = True
                return False
            if rows:
                self._rows = rows
                self._arrivals = arrivals
                self._pos = 0
                return True

    def peek_arrival(self) -> float | None:
        """Arrival time of the next tuple, or ``None`` when exhausted."""
        if self._pos >= len(self._rows) and (self.exhausted or not self._fill()):
            return None
        arrivals = self._arrivals
        return 0.0 if arrivals is None else arrivals[self._pos]

    def _take(self) -> tuple:
        """Consume the buffered tuple a :meth:`peek_arrival` just reported."""
        pos = self._pos
        row = self._rows[pos]
        self._pos = pos + 1
        self.consumed += 1
        if self._order_detectors:
            self._observe_order(row)
        return row

    def read(self) -> tuple[tuple, float] | None:
        """Consume and return ``(row, arrival_time)``, or ``None`` at end."""
        arrival = self.peek_arrival()
        if arrival is None:
            return None
        return self._take(), arrival

    def read_batch(
        self, max_count: int, bound: float | None = None
    ) -> tuple[list[tuple], float | None]:
        """Consume up to ``max_count`` tuples; return ``(rows, last_arrival)``.

        The batch scheduler's bulk read.  With a ``bound`` it stops before
        the first tuple arriving after it — per source, arrival times are
        non-decreasing, so the admissible prefix of a buffered chunk is
        located with one bisect over the arrival column and everything
        consumed has arrived by ``bound`` (a leader's arrival drains its
        share of a tie, the schedule's clock reading what has arrived).
        ``None`` drains regardless of arrival time.  Returns ``([], None)``
        when nothing qualifies or the cursor is exhausted.
        """
        rows: list[tuple] = []
        last_arrival: float | None = None
        while len(rows) < max_count:
            pos = self._pos
            if pos >= len(self._rows):
                if not self._fill():
                    break
                pos = 0
            end = min(pos + (max_count - len(rows)), len(self._rows))
            arrivals = self._arrivals
            if arrivals is None:
                last_arrival = 0.0
            else:
                if bound is not None:
                    end = bisect_right(arrivals, bound, pos, end)
                    if end == pos:
                        break
                last_arrival = arrivals[end - 1]
            rows.extend(self._rows[pos:end])
            self._pos = end
        self.consumed += len(rows)
        if self._order_detectors:
            for row in rows:
                self._observe_order(row)
        return rows, last_arrival

    def read_run(
        self, max_count: int, runner_up: float, tie_until: float, ready: float
    ) -> list[tuple]:
        """Consume the buffered head tuple (the caller's choice: the rule
        prefers it) and the run behind it that the rule
        ``(arrival, priority, consumed)`` prefers to a runner-up arriving at
        ``runner_up``; return the rows.  The rule in closed form over the
        non-decreasing arrival column: everything strictly before
        ``runner_up`` (``bisect_left``) and, of the plateau arriving exactly at
        it, the tuples read while :attr:`consumed` is below ``tie_until`` —
        ``inf`` for a lower priority class than the runner-up's, its consumed
        count for an equal one, 0 for a higher one.  Capped by ``max_count``,
        what has arrived by ``ready`` (``bisect_right``) and the buffer's
        end, where it refills.
        """
        rows: list[tuple] = []
        floor = self._pos + 1
        while True:
            pos = self._pos
            arrivals = self._arrivals or (0.0,) * len(self._rows)
            stop = bisect_right(
                arrivals, ready, pos, min(pos + max_count - len(rows), len(arrivals))
            )
            end = bisect_left(arrivals, runner_up, pos, stop)
            ties = min(stop, pos + tie_until - self.consumed - len(rows))
            if ties > end:
                end = bisect_right(arrivals, runner_up, end, ties)
            end = max(end, floor)
            if end == pos:
                break
            rows.extend(self._rows[pos:end])
            self._pos = end
            if end < len(arrivals) or len(rows) >= max_count or not self._fill():
                break
            floor = 0
        self.consumed += len(rows)
        if self._order_detectors:
            for row in rows:
                self._observe_order(row)
        return rows

    def failover_to(self, mirror, start_at: float | None) -> None:
        """Re-open this cursor's stream on ``mirror`` (mirror failover).

        The mirror is opened at this cursor's :attr:`consumed` offset with a
        connection at ``start_at``, so it supplies the *remainder* of the
        relation — the consumed count, order detectors, and every
        consumer-side invariant carry over untouched, and the running plan
        sees one continuous stream whose rows are identical to the primary's
        and only the arrival times change.  The buffered prefetch chunk is
        discarded: its rows were *scheduled* by the dead primary but never
        consumed, and the mirror re-delivers them on its own schedule.
        """
        offset = self.consumed
        self._chunks = iter(mirror.open_stream_columns(self.prefetch, offset, start_at))
        self._rows = ()
        self._arrivals = ()
        self._pos = 0
        self.exhausted = False
        self.promised_rate = getattr(mirror, "promised_rate", self.promised_rate)
        arrived_by = getattr(mirror, "arrived_by", None)
        if arrived_by is not None:
            self.arrived_by = partial(arrived_by, offset=offset, start_at=start_at)


class PipelinedJoinNode:
    """One symmetric hash join inside the push network."""

    algorithm = "hash"

    def __init__(
        self,
        left_schema: Schema,
        right_schema: Schema,
        left_key: str,
        right_key: str,
        residual_fn: Callable[[tuple], bool] | None,
        metrics: ExecutionMetrics,
    ) -> None:
        self.schema = left_schema.concat(right_schema)
        self.left_schema = left_schema
        self.right_schema = right_schema
        self.left_key = left_key
        self.right_key = right_key
        self.left_state = HashTableState(left_schema, left_key)
        self.right_state = HashTableState(right_schema, right_key)
        self._left_key_pos = left_schema.position(left_key)
        self._right_key_pos = right_schema.position(right_key)
        self._residual_fn = residual_fn
        self.metrics = metrics
        self.output_count = 0
        # Wiring (set by PipelinedPlan): where this node's outputs go.
        self.parent: "PipelinedJoinNode | None" = None
        self.parent_side: str | None = None
        self.sink: Callable[[tuple], None] | None = None
        self.sink_batch: Callable[[list[tuple]], None] | None = None
        # Relations covered by each input (for registry signatures / monitor).
        self.left_relations: frozenset[str] = frozenset()
        self.right_relations: frozenset[str] = frozenset()

    @property
    def relations(self) -> frozenset[str]:
        return self.left_relations | self.right_relations

    def key_position(self, side: str) -> int:
        """Join-key position inside the given side's input tuples."""
        return self._left_key_pos if side == "left" else self._right_key_pos

    def push(self, row: tuple, side: str) -> None:
        """Insert ``row`` on ``side`` ('left'/'right'), probe the other side,
        and propagate every resulting join tuple upward."""
        metrics = self.metrics
        metrics.hash_inserts += 1
        metrics.hash_probes += 1
        if side == "left":
            self.left_state.insert(row)
            matches = self.right_state.probe(row[self._left_key_pos])
            for other in matches:
                self._emit(row + other)
        else:
            self.right_state.insert(row)
            matches = self.left_state.probe(row[self._right_key_pos])
            for other in matches:
                self._emit(other + row)

    def push_batch(self, rows: list[tuple], side: str) -> None:
        """Batched :meth:`push`: insert a whole single-side batch, probe the
        other side in one tight loop, and propagate the combined batch upward.

        Inserting the batch before probing is equivalent to interleaving,
        because a batch only ever carries tuples for one side and probes read
        the *other* side's table.  All metric counters are charged exactly as
        the tuple-at-a-time path would charge them, so work accounting (and
        the simulated clock on local sources) is identical.
        """
        if not rows:
            return
        metrics = self.metrics
        count = len(rows)
        metrics.hash_inserts += count
        metrics.hash_probes += count
        if side == "left":
            self.left_state.insert_batch(rows)
            get = self.right_state.bucket_map().get
            key_pos = self._left_key_pos
            combined = [
                row + other for row in rows for other in get(row[key_pos], ())
            ]
        else:
            self.right_state.insert_batch(rows)
            get = self.left_state.bucket_map().get
            key_pos = self._right_key_pos
            combined = [
                other + row for row in rows for other in get(row[key_pos], ())
            ]
        if not combined:
            return
        residual_fn = self._residual_fn
        if residual_fn is not None:
            metrics.predicate_evals += len(combined)
            combined = [row for row in combined if residual_fn(row)]
            if not combined:
                return
        metrics.tuple_copies += len(combined)
        self.output_count += len(combined)
        if self.parent is not None:
            self.parent.push_batch(combined, self.parent_side)
        elif self.sink_batch is not None:
            metrics.tuples_output += len(combined)
            self.sink_batch(combined)
        elif self.sink is not None:
            metrics.tuples_output += len(combined)
            sink = self.sink
            for row in combined:
                sink(row)

    def _emit(self, combined: tuple) -> None:
        metrics = self.metrics
        if self._residual_fn is not None:
            metrics.predicate_evals += 1
            if not self._residual_fn(combined):
                return
        metrics.tuple_copies += 1
        self.output_count += 1
        if self.parent is not None:
            self.parent.push(combined, self.parent_side)
        elif self.sink is not None:
            metrics.tuples_output += 1
            self.sink(combined)

    def peak_state_tuples(self) -> int:
        """Peak resident build-side tuples (hash tables only ever grow)."""
        return len(self.left_state) + len(self.right_state)


class PreAggregationStage:
    """A plan's pre-aggregation point (Section 6) as a stage of the network.

    It sits where its subtree's output went — a leaf's binding, or the
    parent of the subtree's root join — and has the join node's ``push`` /
    ``push_batch`` interface, so neither drive loop nor the batch kernel
    knows it is there.  Every tuple is fed to the stage's
    :class:`~repro.core.preaggregation.WindowedPreAggregator`; the partial
    aggregates a closing window emits go on to the join above, and
    :meth:`flush` closes the last window once the sources are exhausted.
    """

    def __init__(self, aggregator) -> None:
        self.aggregator = aggregator
        # Wiring (set by PipelinedPlan): the join node and side fed.
        self.parent: PipelinedJoinNode | None = None
        self.parent_side: str | None = None

    def push(self, row: tuple, side: str) -> None:
        for partial in self.aggregator.feed(row):
            self.parent.push(partial, self.parent_side)

    def push_batch(self, rows: list[tuple], side: str) -> None:
        feed = self.aggregator.feed
        partials = [partial for row in rows for partial in feed(row)]
        if partials:
            self.parent.push_batch(partials, self.parent_side)

    def flush(self) -> None:
        partials = self.aggregator.flush()
        if partials:
            self.parent.push_batch(partials, self.parent_side)


class PlanOutput:
    """Where a plan's root delivers: its output sinks and :attr:`count`.

    The plan owns it, and the root node's sinks, the interpreted kernels and
    the compiled chains bind it in place of the plan.  Nothing the plan
    reaches points back at the plan, so reference counting frees a phase's
    plan, join state included, as soon as the phase is replaced.
    """

    def __init__(self, sink, sink_batch, metrics: ExecutionMetrics) -> None:
        self.sink: Callable[[tuple], None] = sink
        self.sink_batch: Callable[[list[tuple]], None] | None = sink_batch
        self.metrics = metrics
        self.count = 0

    def emit(self, row: tuple) -> None:
        self.count += 1
        self.sink(row)

    def emit_batch(self, rows: list[tuple]) -> None:
        self.count += len(rows)
        if self.sink_batch is not None:
            self.sink_batch(rows)
        else:
            sink = self.sink
            for row in rows:
                sink(row)

    def _interpreted_group(self, binding: "LeafBinding", rows: list[tuple]) -> None:
        """The interpreted kernel: one group through the generic operators."""
        metrics = self.metrics
        count = len(rows)
        metrics.tuples_read += count
        binding.tuples_read += count
        selection_fn = binding.selection_fn
        if selection_fn is not None:
            metrics.predicate_evals += count
            rows = [row for row in rows if selection_fn(row)]
            if not rows:
                return
        binding.tuples_passed += len(rows)
        if binding.node is None:
            # Single-relation query.
            metrics.tuples_output += len(rows)
            self.emit_batch(rows)
        else:
            binding.node.push_batch(rows, binding.side)


@dataclass
class LeafBinding:
    """Where tuples of one base relation enter the join network."""

    relation: str
    node: PipelinedJoinNode
    side: str
    selection_fn: Callable[[tuple], bool] | None
    tuples_read: int = 0
    tuples_passed: int = 0


@dataclass
class PhaseStatistics:
    """Per-phase execution summary used by reports and the re-optimizer."""

    phase_id: int
    steps: int = 0
    tuples_read: int = 0
    outputs: int = 0
    work_units: float = 0.0
    simulated_seconds: float = 0.0
    consumed_per_relation: dict[str, int] = field(default_factory=dict)


def _add_rows(groups: list[tuple], binding: LeafBinding, rows: list[tuple]) -> None:
    """Merge one scheduled run into its leaf's group (first-grant order).

    A plan has a handful of leaves, so the group is found by scanning.
    """
    for group in groups:
        if group[0] is binding:
            group[1].extend(rows)
            return
    groups.append((binding, rows))


#: tuple drive-loop entry -> its read key
_entry_key = itemgetter(0)


class PipelinedPlan:
    """An instantiated push network for one ADP phase of an SPJA query.

    ``batch_size`` selects the execution granularity.  ``None`` (the default)
    is the paper's tuple-at-a-time mode: one :meth:`step` reads one source
    tuple and fully propagates it.  An integer enables batch-at-a-time mode:
    one step (:meth:`step_batch`) reads the source tuples that have arrived,
    up to its budget (``batch_size`` in a static :meth:`run`, what is left of
    the chunk in :meth:`run_chunk`) — **in exactly the per-source counts the
    tuple-at-a-time scheduler would have chosen** — and propagates them, one
    kernel call per per-leaf group.  Because a step always fully propagates
    what it read, the plan is in a consistent state between steps, so
    suspension, monitoring and corrective plan switching keep working, just
    at step granularity.

    The batch path has one shape, whatever the engine mode::

        step_batch      ->  ready = the clock's last reading; if nothing
                            has arrived by then: sync the clock,
                            wait_until(next_arrival())
        _read_schedule  ->  (binding, rows) groups, all arrived by ready
        step_batch      ->  per group: one kernel(rows) call

    :meth:`_read_schedule` is the only batch scheduler and :meth:`step_batch`
    the only batch driver.  ``engine_mode`` picks nothing but the per-leaf
    *kernel* (:meth:`_build_kernels`, consulted once, on the first batch):
    the interpreted group body or a fused compiled chain.

    Tuple mode has one scheduler and driver of its own,
    :meth:`_drive_tuples`, behind :meth:`step` (a budget of one),
    :meth:`run` and :meth:`run_chunk`.  It states the paper's rule (Section
    4.1: read the earliest-available tuple, propagate it fully) one tuple at
    a time and is the reference the differential suites compare every batch
    configuration against, so it shares no scheduling code with
    :meth:`_read_schedule` — ``batch_size=1`` through the shared path
    schedules from scratch once per tuple and is several times slower
    (``bench/README.md``).  What it caches lives for one call only: the live
    cursors' read keys (one entry re-keyed per step); the clock is charged,
    from :meth:`ExecutionMetrics.work`, only before a stall and on sync.
    """

    def __init__(
        self,
        query: SPJAQuery,
        join_tree: JoinTree,
        cursors: dict[str, SourceCursor],
        output_sink: Callable[[tuple], None],
        phase_id: int = 0,
        metrics: ExecutionMetrics | None = None,
        clock: SimulatedClock | None = None,
        cost_model: CostModel | None = None,
        batch_size: int | None = None,
        output_sink_batch: Callable[[list[tuple]], None] | None = None,
        join_strategies: dict[frozenset[str], object] | None = None,
        engine_mode: str | None = None,
        preagg_points: Sequence[PreAggPoint] = (),
    ) -> None:
        """``join_strategies`` optionally maps a node's relation set to a
        :class:`~repro.optimizer.ordering.JoinStrategy`; nodes mapped to the
        ``"merge"`` algorithm are built as
        :class:`~repro.engine.pipelined_merge.PipelinedMergeJoinNode` instead
        of symmetric hash joins (the order-adaptive physical strategy).

        ``engine_mode`` selects how batches are propagated: ``"interpreted"``
        walks the generic operator code, ``"compiled"`` runs fused
        plan-specialized batch functions (see :mod:`repro.engine.compiled`)
        with identical results and work accounting.  Compiled mode requires
        a ``batch_size``; chains are (re)generated per plan, so corrective
        phase switches and hash↔merge strategy switches recompile naturally.
        By default (``None``) a batched plan without stages runs compiled.

        ``preagg_points`` are a :class:`~repro.optimizer.plans.PhysicalPlan`'s
        pre-aggregation points; each becomes a :class:`PreAggregationStage`
        above its subtree, and the sink then receives partial aggregates.
        The compiled chains do not run stages.
        """
        from repro.engine.compiled import validate_engine_mode

        if join_tree.relations() != frozenset(query.relations):
            raise PlanError(
                f"join tree {join_tree} does not cover the relations of query {query.name}"
            )
        mode = validate_engine_mode(engine_mode, batch_size, staged=bool(preagg_points))
        if preagg_points and mode == "compiled":
            raise PlanError(
                f"engine_mode='compiled' cannot run the {len(preagg_points)} "
                f"pre-aggregation point(s) of query {query.name}; use "
                "engine_mode='interpreted'"
            )
        if preagg_points and query.aggregation is None:
            raise PlanError(f"query {query.name} has pre-aggregation points but no GROUP BY")
        self.query = query
        self.join_tree = join_tree
        self.cursors = cursors
        self.phase_id = phase_id
        self.batch_size = batch_size
        #: the kernel this plan runs, ``"interpreted"`` or ``"compiled"``
        self.engine_mode = mode
        #: per-leaf batch kernels (relation -> callable consuming one group's
        #: rows), built on the first batch step; in compiled mode the table
        #: *is* ``_compiled_chains``, which stays ``None`` otherwise
        self._kernels: dict[str, Callable[[list], None]] | None = None
        self._compiled_chains: dict[str, Callable[[list], None]] | None = None
        self.join_strategies = dict(join_strategies) if join_strategies else {}
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.cost_model = cost_model or CostModel()
        self.clock = clock if clock is not None else SimulatedClock(self.cost_model)
        #: the root's sinks and output count (executors re-point the sinks)
        self.output = PlanOutput(output_sink, output_sink_batch, self.metrics)
        #: read-priority overrides (relation -> priority class, lower runs
        #: first among equally *available* tuples).  Empty by default, in
        #: which case every scheduling path below is byte-identical to the
        #: priority-free behaviour; the source-rate adaptation policy demotes
        #: collapsed sources here.  Availability still dominates: a demoted
        #: source's arrived tuples are only deferred behind healthy sources'
        #: arrived tuples, never skipped.
        self.read_priorities: dict[str, int] = {}
        self.leaves: dict[str, LeafBinding] = {}
        self.nodes: list[PipelinedJoinNode] = []
        #: pre-aggregation stages by the relation set below them
        self.stages: dict[frozenset[str], PreAggregationStage] = {}
        self._charged_work = self.metrics.work(self.cost_model)
        self._build_network(preagg_points)
        self._leaf_pairs = [
            (binding, cursors[name]) for name, binding in self.leaves.items()
        ]
        self.statistics = PhaseStatistics(phase_id=phase_id)

    # -- network construction --------------------------------------------------

    def _output_schema_of(self, tree: JoinTree) -> Schema:
        if self.stages:
            stage = self.stages.get(tree.relations())
            if stage is not None:
                return stage.aggregator.output_schema
        if tree.is_leaf:
            return self.cursors[tree.relation].schema
        return self._output_schema_of(tree.left).concat(self._output_schema_of(tree.right))

    def _build_stages(self, tree: JoinTree, points: dict[frozenset, PreAggPoint]) -> None:
        """One stage per point, bottom-up.  Consumes ``points``.

        A window folds raw tuples, so a point may not sit above another one
        (the optimizer only places minimal points)."""
        from repro.core.preaggregation import WindowedPreAggregator, WindowPolicy

        if not tree.is_leaf:
            self._build_stages(tree.left, points)
            self._build_stages(tree.right, points)
        point = points.pop(tree.relations(), None)
        if point is None:
            return
        if any(below < point.below for below in self.stages):
            raise PlanError(
                f"pre-aggregation point above {sorted(point.below)} sits above another one"
            )
        policy = WindowPolicy() if point.mode == "window" else WindowPolicy.unbounded()
        aggregator = WindowedPreAggregator(
            self._output_schema_of(tree),
            point.group_attributes,
            self.query.aggregation.aggregates,
            policy,
            self.metrics,
        )
        self.stages[point.below] = PreAggregationStage(aggregator)

    def _build_network(self, preagg_points: Sequence[PreAggPoint]) -> None:
        points = {point.below: point for point in preagg_points}
        if points and not self.join_tree.is_leaf:
            self._build_stages(self.join_tree.left, points)
            self._build_stages(self.join_tree.right, points)
        if points:
            raise PlanError(
                f"pre-aggregation points above {[sorted(below) for below in points]} "
                f"match no subtree with a join above it in {self.join_tree}"
            )
        if self.join_tree.is_leaf:
            # Single-relation query: tuples go straight to the sink.
            relation = self.join_tree.relation
            self.leaves[relation] = LeafBinding(
                relation=relation,
                node=None,  # type: ignore[arg-type]
                side="left",
                selection_fn=self._compile_selection(relation),
            )
            return
        self._build_node(self.join_tree, parent=None, parent_side=None)

    def _compile_selection(self, relation: str) -> Callable[[tuple], bool] | None:
        predicate = self.query.selection_for(relation)
        if isinstance(predicate, TruePredicate):
            return None
        return predicate.compile(self.cursors[relation].schema)

    def _build_node(
        self,
        tree: JoinTree,
        parent: PipelinedJoinNode | None,
        parent_side: str | None,
    ) -> PipelinedJoinNode:
        left_schema = self._output_schema_of(tree.left)
        right_schema = self._output_schema_of(tree.right)
        left_relations = tree.left.relations()
        right_relations = tree.right.relations()
        predicates = self.query.predicates_between(left_relations, right_relations)
        if not predicates:
            raise PlanError(
                f"no join predicate connects {sorted(left_relations)} and "
                f"{sorted(right_relations)} in query {self.query.name}"
            )
        oriented: list[tuple[str, str]] = []
        for pred in predicates:
            if pred.left_attr in left_schema and pred.right_attr in right_schema:
                oriented.append((pred.left_attr, pred.right_attr))
            else:
                oriented.append((pred.right_attr, pred.left_attr))
        left_key, right_key = oriented[0]
        residual = None
        residual_fn = None
        if len(oriented) > 1:
            residual = conjunction(
                Comparison(AttributeRef(lk), "=", AttributeRef(rk))
                for lk, rk in oriented[1:]
            )
            residual_fn = residual.compile(left_schema.concat(right_schema))

        strategy = self.join_strategies.get(left_relations | right_relations)
        if strategy is not None and strategy.algorithm == "merge":
            node = PipelinedMergeJoinNode(
                left_schema,
                right_schema,
                left_key,
                right_key,
                residual_fn,
                self.metrics,
                direction=strategy.direction,
            )
        else:
            node = PipelinedJoinNode(
                left_schema, right_schema, left_key, right_key, residual_fn, self.metrics
            )
        node.left_relations = left_relations
        node.right_relations = right_relations
        #: the residual Predicate tree (None when single-predicate); kept so
        #: the compiled engine can inline its source instead of calling the
        #: generic compiled closure per candidate tuple
        node.residual_predicate = residual
        node.parent = parent
        node.parent_side = parent_side
        if parent is None:
            node.sink = self.output.emit
            node.sink_batch = self.output.emit_batch
        self.nodes.append(node)

        for child_tree, side, relations in (
            (tree.left, "left", left_relations),
            (tree.right, "right", right_relations),
        ):
            # A stage above the child takes the child's output to this node.
            target = node
            stage = self.stages.get(relations)
            if stage is not None:
                stage.parent, stage.parent_side = node, side
                target = stage
            if child_tree.is_leaf:
                relation = child_tree.relation
                self.leaves[relation] = LeafBinding(
                    relation=relation,
                    node=target,
                    side=side,
                    selection_fn=self._compile_selection(relation),
                )
            else:
                self._build_node(child_tree, parent=target, parent_side=side)
        return node

    @property
    def output_schema(self) -> Schema:
        """Schema of tuples delivered to the output sink (pre-aggregation)."""
        return self._output_schema_of(self.join_tree)

    # -- execution -------------------------------------------------------------

    def _drive_tuples(self, budget: int | None) -> int:
        """Run up to ``budget`` tuple-at-a-time steps; return how many ran.

        The paper's rule (Section 4.1), one tuple at a time: read the
        earliest-available source tuple and propagate it fully.  The next
        read is the minimum ``(arrival, priority class, consumed)``, first in
        leaf order on ties — the earliest arrival masks bursty network
        delays, the consumption count keeps sources draining at similar
        rates, and a :attr:`read_priorities` demotion only defers a source
        behind equally *available* ones.  Between two steps only the cursor
        that was read changes its key, so the live set is keyed once on
        entry and re-keyed one entry per step, and an exhausted cursor leaves
        it.  (The controller replaces ``read_priorities`` and fails cursors
        over only between calls, so nothing invalidates the set meanwhile.)

        The work is priced only where a stall can start: the clock's last
        reading can only lag the true time, so a tuple arriving at or before
        it never stalls, and one arriving later first charges the work
        accrued so far, so the stall starts from the current time.
        The rest is left to the caller's :meth:`_sync_clock`; the clock is
        exact, so one charge lands where per-step charges would.
        """
        priorities = self.read_priorities
        live = []
        for binding, cursor in self._leaf_pairs:
            arrival = cursor.peek_arrival()
            if arrival is not None:
                priority = priorities.get(binding.relation, 0)
                live.append([(arrival, priority, cursor.consumed), cursor, binding])
        metrics = self.metrics
        clock = self.clock
        charge = clock.charge
        charged = self._charged_work
        model = self.cost_model
        # No budget: bounds no step count.
        limit = math.inf if budget is None else budget
        steps = 0
        try:
            while live and steps < limit:
                entry = live[0] if len(live) == 1 else min(live, key=_entry_key)
                key, cursor, binding = entry
                arrival = key[0]
                row = cursor._take()
                if arrival > clock.now:
                    work = metrics.work(model)
                    if work > charged:
                        charge(work, charged)
                        charged = work
                    clock.wait_until(arrival)
                steps += 1
                metrics.tuples_read += 1
                binding.tuples_read += 1
                selection_fn = binding.selection_fn
                if selection_fn is not None:
                    metrics.predicate_evals += 1
                if selection_fn is None or selection_fn(row):
                    binding.tuples_passed += 1
                    if binding.node is None:
                        # Single-relation query.
                        metrics.tuples_output += 1
                        self.output.emit(row)
                    else:
                        binding.node.push(row, binding.side)
                arrival = cursor.peek_arrival()
                if arrival is None:
                    live.remove(entry)
                else:
                    entry[0] = (arrival, key[1], cursor.consumed)
        finally:
            # Also on an error out of a source, predicate or sink: the clock
            # has been charged, so a later sync must not charge it again.
            self._charged_work = charged
            self.statistics.steps += steps
            self.statistics.tuples_read += steps
        return steps

    def step(self) -> bool:
        """Read one source tuple and propagate it; return False when done."""
        return self._drive_tuples(1) == 1

    @staticmethod
    def _zero_quotas(counts: list[int], budget: int) -> list[int]:
        """How many tuples the least-consumed-first scheduler grants each of
        several equally available sources (tied on arrival and priority
        class) out of ``budget``.

        Water-filling: raise every count to a common level ``L``, then hand
        the remainder one tuple each to the first eligible sources in leaf
        order — exactly the counts the tuple-at-a-time tie-breaking rule
        ("least consumed, then leaf order") produces.  The level is found by
        walking the sorted counts directly (a handful of arithmetic steps
        for the small per-plan leaf sets on the batched engine's hot path).
        """
        if len(counts) == 1:
            return [budget]
        order = sorted(counts)
        # Raise the water level across the sorted counts until the budget is
        # spent: filling every count below order[i] up to order[i] costs
        # i * (order[i] - level) more tuples.
        level = order[0]
        spent = 0
        filled = 1
        for i in range(1, len(order)):
            step = order[i] - level
            cost = i * step
            if spent + cost > budget:
                break
            spent += cost
            level = order[i]
            filled = i + 1
        remaining = budget - spent
        level += remaining // filled
        spent = budget - (remaining % filled)
        extra = budget - spent
        quotas = []
        for count in counts:
            quota = level - count if count < level else 0
            if extra > 0 and count <= level:
                quota += 1
                extra -= 1
            quotas.append(quota)
        return quotas

    def _read_schedule(self, budget: int, ready: float) -> list[tuple]:
        """Read up to ``budget`` source tuples that have arrived by ``ready``,
        grouped per leaf.

        The only batch scheduler: every batch of either engine mode is cut
        here.  It consumes **exactly the tuples the tuple-at-a-time rule**
        (:meth:`_drive_tuples`) reads next, in the same per-source counts,
        as far as they have arrived by ``ready``.  For a symmetric-hash-join
        network every boundary observable — result multiset, per-leaf pass
        counts, node output counts, work counters and hence the simulated
        clock — depends only on those per-source counts, not on the
        interleaving, so monitor observations and re-optimizer decisions
        taken at chunk boundaries are identical for every batch size.  Freed
        from replaying the exact interleaving, the schedule coalesces each
        source's share into one contiguous per-leaf run, which is what makes
        whole-batch propagation worthwhile.

        Each round finds the *leader*, the minimum (arrival, priority class,
        consumed) among the sources whose next tuple has arrived, and the
        sources tied with it on (arrival, class):

        * several tied sources share that arrival's plateau
          least-consumed-first: the rule's round-robin is computed
          arithmetically (:meth:`_zero_quotas`) and each quota is drained
          with one :meth:`SourceCursor.read_batch` bounded by the arrival.
          On local sources every arrival is 0.0, so this is all a schedule
          does, and one round grants the whole budget unless a source runs
          dry inside its quota: the first round's runs *are* the groups and
          only later rounds merge;
        * a lone leader whose runner-up has not arrived by ``ready`` drains
          what it has that has, with one ``read_batch``;
        * a lone leader racing an arrived runner-up reads the run it stays
          ahead for, cut from its arrival column by
          :meth:`SourceCursor.read_run`, in bisects.

        Returns ``(binding, rows)`` groups in first-grant order.
        """
        pairs = self._leaf_pairs
        priorities = self.read_priorities
        groups: list[tuple] = []
        merging = False
        while budget > 0:
            lead_arrival = math.inf
            lead_class = 0
            tied: list[tuple] = []
            arrived = 0
            for pair in pairs:
                arrival = pair[1].peek_arrival()
                if arrival is None or arrival > ready:
                    continue
                arrived += 1
                rank = priorities.get(pair[0].relation, 0) if priorities else 0
                if arrival < lead_arrival or (
                    arrival == lead_arrival and rank < lead_class
                ):
                    lead_arrival, lead_class = arrival, rank
                    tied = [pair]
                elif arrival == lead_arrival and rank == lead_class:
                    tied.append(pair)
            if not tied:
                break
            if len(tied) > 1:
                quotas = self._zero_quotas([cursor.consumed for _, cursor in tied], budget)
                runs = [
                    (binding, cursor.read_batch(quota, lead_arrival)[0])
                    for (binding, cursor), quota in zip(tied, quotas)
                    if quota > 0
                ]
            else:
                binding, cursor = tied[0]
                if arrived == 1:
                    rows = cursor.read_batch(budget, ready)[0]
                else:
                    runner = (math.inf, 0, 0)
                    for other_binding, other in pairs:
                        if other is cursor:
                            continue
                        arrival = other.peek_arrival()
                        if arrival is not None and arrival <= ready:
                            rank = priorities.get(other_binding.relation, 0)
                            runner = min(runner, (arrival, rank, other.consumed))
                    # An arrival tie goes by priority class, then consumed count.
                    runner_up, runner_class, tie_until = runner
                    if runner_class != lead_class:
                        tie_until = math.inf if lead_class < runner_class else 0
                    rows = cursor.read_run(budget, runner_up, tie_until, ready)
                runs = [(binding, rows)]
            for binding, rows in runs:
                if rows:
                    budget -= len(rows)
                    if merging:
                        _add_rows(groups, binding, rows)
                    else:
                        groups.append((binding, rows))
            merging = True
        return groups

    def _build_kernels(self) -> dict[str, Callable[[list], None]]:
        """Per-leaf batch kernels — the one place the plan reads ``engine_mode``.

        A kernel consumes one scheduled group's rows and does everything the
        group owes: selection, the leaf→root join chain, root emission, and
        every per-leaf / per-node / work counter.  ``"interpreted"`` binds
        the generic :meth:`PlanOutput._interpreted_group` body; ``"compiled"``
        takes the fused chains of
        :func:`repro.engine.compiled.compile_plan_chains`.  Either binds the
        plan's :class:`PlanOutput`, never the plan.  Built on the first batch
        step, by which point executors have attached their sinks.
        """
        if self.engine_mode == "compiled":
            from repro.engine.compiled import compile_plan_chains

            self._compiled_chains = compile_plan_chains(self)
            return self._compiled_chains
        return {
            relation: partial(self.output._interpreted_group, binding)
            for relation, binding in self.leaves.items()
        }

    def step_batch(self, max_tuples: int | None = None) -> int:
        """Read one batch of source tuples that have arrived and fully
        propagate it.

        The only batch driver: :meth:`_read_schedule` cuts the batch into
        per-leaf groups, and each group is handed to its leaf's kernel
        (:meth:`_build_kernels`) in one call.  A group's chain writes only its
        own side of each join and probes the other, so one call gives the
        same outputs, counters and clock as any slicing of it.
        Returns the number of source tuples consumed (0 when exhausted).

        The schedule's budget is ``max_tuples`` (what is left of a
        :meth:`run_chunk`), else ``batch_size``, and it reads only tuples
        that have arrived by the clock's last reading, so no group waits.
        Only when nothing has arrived by then is the clock synced, and if
        still nothing has, it stalls once
        until the next arrival — the tuple rule's stall, after the same work
        — and the schedule reads up to the new reading.  The clock is exact,
        so simulated seconds equal the tuple rule's on every source.
        """
        budget = (self.batch_size or 1) if max_tuples is None else max_tuples
        if budget < 1:
            return 0
        kernels = self._kernels
        if kernels is None:
            kernels = self._kernels = self._build_kernels()
        clock = self.clock
        groups = self._read_schedule(budget, clock.now)
        if not groups:
            self._sync_clock()
            arrival = self.next_arrival()
            if arrival is None:
                return 0
            clock.wait_until(arrival)
            groups = self._read_schedule(budget, clock.now)
        self.metrics.batches_read += 1
        total = 0
        for binding, rows in groups:
            total += len(rows)
            kernels[binding.relation](rows)
        self.statistics.steps += 1
        self.statistics.tuples_read += total
        return total

    def _sync_clock(self) -> None:
        work = self.metrics.work(self.cost_model)
        if work > self._charged_work:
            self.clock.charge(work, self._charged_work)
            self._charged_work = work

    def run(self, max_steps: int | None = None) -> int:
        """Run until sources are exhausted or ``max_steps`` steps have run.

        In tuple-at-a-time mode a step is one source tuple; in batched mode a
        step is one batch of up to ``batch_size`` tuples.
        """
        if self.batch_size is None:
            steps = self._drive_tuples(max_steps)
        else:
            steps = 0
            while (max_steps is None or steps < max_steps) and self.step_batch():
                steps += 1
        self._flush_stages()
        self._sync_clock()
        self._finalize_statistics()
        return steps

    def run_chunk(self, max_tuples: int, until: float | None = None) -> int:
        """Process chunks of up to ``max_tuples`` source tuples; return how
        many tuples ran.

        Unlike :meth:`run`, the cap is expressed in *tuples* in both modes,
        and the final batch is clipped so the chunk ends on exactly the
        requested tuple boundary.  The corrective processor checks its clock
        at chunk boundaries, so plan-switch decisions are taken at identical
        tuple positions regardless of batch size — which is what makes phase
        counts comparable (and differential-testable) across batch sizes.

        In batched mode what is left of the chunk is :meth:`step_batch`'s
        budget: one schedule reads all of it that has arrived (on local
        sources the whole chunk, one ``batches_read``), and each of its
        per-leaf groups is one kernel call, whatever the ``batch_size``.

        Without ``until`` this is one chunk.  With ``until`` (a blocking
        run's next poll) it is one *poll window*: chunk after chunk, the
        clock synced after each, until the clock reaches ``until`` or a chunk
        comes up short — the same chunks, and so the same poll positions, as
        a loop of single-chunk calls checking the clock between them.
        """
        processed = 0
        while True:
            if self.batch_size is None:
                ran = self._drive_tuples(max_tuples)
            else:
                ran = 0
                while ran < max_tuples:
                    read = self.step_batch(max_tuples - ran)
                    if read == 0:
                        break
                    ran += read
            processed += ran
            if until is None or ran < max_tuples:
                break
            self._sync_clock()
            if self.clock.now >= until:
                break
        self._flush_stages()
        self._sync_clock()
        self._finalize_statistics()
        return processed

    def _flush_stages(self) -> None:
        """Close every pre-aggregation stage's last window once every cursor
        is exhausted (a flushed stage has nothing left to emit)."""
        if self.stages and self.sources_exhausted:
            for stage in self.stages.values():
                stage.flush()

    def _finalize_statistics(self) -> None:
        self.statistics.outputs = self.output.count
        self.statistics.work_units = self.metrics.work(self.cost_model)
        self.statistics.simulated_seconds = self.clock.now
        self.statistics.consumed_per_relation = self.leaf_counts()

    def finish_phase(self) -> PhaseStatistics:
        """Flush accounting after the controller decides to stop this phase."""
        self._sync_clock()
        self._finalize_statistics()
        return self.statistics

    @property
    def sources_exhausted(self) -> bool:
        return self.next_arrival() is None

    def next_arrival(self) -> float | None:
        """Earliest pending arrival among this plan's live cursors; ``None``
        when every source is exhausted (:attr:`sources_exhausted`).  A batch
        that finds nothing arrived stalls the clock until it."""
        best: float | None = None
        for name in self.leaves:
            arrival = self.cursors[name].peek_arrival()
            if arrival is not None and (best is None or arrival < best):
                best = arrival
        return best

    # -- monitoring ------------------------------------------------------------

    def leaf_counts(self) -> dict[str, int]:
        """Tuples (post-selection) each relation contributed in this phase."""
        return {name: binding.tuples_passed for name, binding in self.leaves.items()}

    def observed_selectivities(self) -> dict[frozenset, float]:
        """Observed selectivity of every join subexpression in this plan.

        Selectivity of a subexpression is defined as in Section 4.2: output
        cardinality divided by the product of the cardinalities of all its
        input relations (the partitions seen in this phase).
        """
        counts = self.leaf_counts()
        result: dict[frozenset, float] = {}
        for node in self.nodes:
            relations = node.relations
            denom = 1.0
            for rel in relations:
                denom *= max(counts.get(rel, 0), 1)
            result[relations] = node.output_count / denom
        return result

    def join_algorithms(self) -> dict[frozenset, str]:
        """Physical algorithm each join node of this phase runs."""
        return {node.relations: node.algorithm for node in self.nodes}

    def peak_state_tuples(self) -> int:
        """Peak simultaneously-resident join-state tuples across all nodes.

        Hash nodes only grow, so their current size is their peak; merge
        nodes report the peak of their bounded active windows (archived
        tuples model spilled partitions and are excluded).
        """
        return sum(node.peak_state_tuples() for node in self.nodes)

    # -- state registration for stitch-up --------------------------------------

    def register_state(self, registry: StateRegistry) -> None:
        """Register base partitions and intermediate results with the registry."""
        for node in self.nodes:
            for side, relations, state in (
                ("left", node.left_relations, node.left_state),
                ("right", node.right_relations, node.right_state),
            ):
                signature = expression_signature(
                    (rel, self.phase_id) for rel in relations
                )
                kind = "partition" if len(relations) == 1 else "intermediate"
                registry.register(
                    signature,
                    state,
                    plan_id=self.phase_id,
                    description=f"phase {self.phase_id} {kind} ({side} input of {sorted(node.relations)})",
                )


class PipelinedExecutor:
    """Convenience wrapper: run a single pipelined plan to completion.

    This is the *static* execution strategy — optimize once, run the chosen
    join tree with pipelined hash joins until the sources are exhausted.
    ``batch_size=None`` keeps the paper's tuple-at-a-time granularity; an
    integer runs the same plan batch-at-a-time.
    """

    def __init__(
        self,
        sources: dict[str, object],
        cost_model: CostModel | None = None,
        batch_size: int | None = None,
        join_strategies: dict[frozenset[str], object] | None = None,
        engine_mode: str | None = None,
    ) -> None:
        self.sources = dict(sources)
        self.cost_model = cost_model or CostModel()
        self.batch_size = batch_size
        self.join_strategies = join_strategies
        self.engine_mode = engine_mode

    def execute(
        self,
        query: SPJAQuery,
        join_tree: JoinTree,
        clock: SimulatedClock | None = None,
        metrics: ExecutionMetrics | None = None,
        preagg_points: Sequence[PreAggPoint] = (),
    ):
        """Run ``query`` with ``join_tree``; returns ``(rows, plan)``.

        For aggregation queries the rows are the final grouped output; for SPJ
        queries they are the raw join results.  ``preagg_points`` (a
        :class:`~repro.optimizer.plans.PhysicalPlan`'s) run as window stages,
        and the final GROUP BY then coalesces their partial aggregates.
        """
        from repro.engine.operators.aggregate import GroupAccumulator

        metrics = metrics if metrics is not None else ExecutionMetrics()
        clock = clock if clock is not None else SimulatedClock(self.cost_model)
        prefetch = None
        if self.batch_size is not None:
            prefetch = max(self.batch_size, SourceCursor.DEFAULT_PREFETCH)
        cursors = {
            name: SourceCursor(name, self.sources[name], prefetch=prefetch)
            for name in query.relations
        }
        collected: list[tuple] = []
        accumulator: GroupAccumulator | None = None

        plan = PipelinedPlan(
            query,
            join_tree,
            cursors,
            collected.append,
            0,
            metrics,
            clock,
            self.cost_model,
            batch_size=self.batch_size,
            output_sink_batch=collected.extend,
            join_strategies=self.join_strategies,
            engine_mode=self.engine_mode,
            preagg_points=preagg_points,
        )
        if query.aggregation is not None:
            # The accumulator needs the join output schema, which depends on
            # the tree; the plan knows it once the network is built.
            accumulator = GroupAccumulator(
                plan.output_schema,
                query.aggregation.group_attributes,
                query.aggregation.aggregates,
                input_is_partial=bool(preagg_points),
                metrics=metrics,
            )
            plan.output.sink = accumulator.accumulate
            plan.output.sink_batch = accumulator.accumulate_batch
            if plan.engine_mode == "compiled":
                from repro.engine.compiled import fused_output_sink

                fold = fused_output_sink(accumulator)
                if fold is not None:
                    plan.output.sink_batch = fold

        plan.run()
        if accumulator is not None:
            rows = accumulator.results()
        else:
            rows = collected
        return rows, plan
