"""Execution monitoring: turning operator counters into optimizer knowledge.

Section 3.3: every operator keeps an output counter, state structures expose
their cardinalities, and the re-optimizer combines these into subexpression
selectivities.  The monitor also flags "multiplicative" join predicates —
joins whose output exceeds both inputs — so future estimates involving them
are scaled up conservatively (Section 4.2).

Beyond the accumulated :class:`ObservedStatistics`, every poll appends typed
:class:`~repro.adaptivity.events.AdaptationEvent` records to an event queue:
selectivity drift, ordering verdicts, per-source arrival-rate/stall
telemetry and exhaustion.  The adaptivity kernel's controller drains the
queue (:meth:`ExecutionMonitor.drain_events`) and fans the events out to its
policies — the monitor itself never decides anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adaptivity.events import (
    AdaptationEvent,
    OrderingObservedEvent,
    SelectivityDriftEvent,
    SourceExhaustedEvent,
    SourceRateEvent,
)
from repro.engine.pipelined import PipelinedPlan, SourceCursor
from repro.optimizer.statistics import ObservedStatistics
from repro.relational.algebra import SPJAQuery
from repro.relational.expressions import JoinPredicate


@dataclass
class MonitorSnapshot:
    """One polling observation, kept for reporting / debugging."""

    phase_id: int
    simulated_seconds: float
    tuples_read: int
    node_outputs: dict[frozenset, int] = field(default_factory=dict)

    def __repr__(self) -> str:
        outputs = ", ".join(
            f"{'⋈'.join(sorted(relations))}={count}"
            for relations, count in sorted(
                self.node_outputs.items(), key=lambda item: sorted(item[0])
            )
        )
        return (
            f"MonitorSnapshot(phase={self.phase_id}, "
            f"t={self.simulated_seconds:.3f}s, read={self.tuples_read}, "
            f"outputs[{outputs}])"
        )


class ExecutionMonitor:
    """Collects runtime statistics from a running pipelined plan."""

    def __init__(self, query: SPJAQuery) -> None:
        self.query = query
        self.observed = ObservedStatistics()
        self.snapshots: list[MonitorSnapshot] = []
        #: typed adaptation events accumulated since the last drain
        self.events: list[AdaptationEvent] = []
        self._last_node_outputs: dict[frozenset, int] | None = None
        self._exhausted_emitted: set[str] = set()
        self._ordering_emitted: dict[tuple[str, str], int] = {}

    # -- observation -------------------------------------------------------------

    def observe(
        self,
        plan: PipelinedPlan,
        cursors: dict[str, SourceCursor],
    ) -> ObservedStatistics:
        """Fold the plan's current counters into the accumulated statistics."""
        phase_id = plan.phase_id
        now = plan.clock.now
        leaf_counts = plan.leaf_counts()
        exhausted_sources: dict[str, bool] = {}
        for relation, binding in plan.leaves.items():
            cursor = cursors[relation]
            next_arrival = cursor.peek_arrival()
            exhausted = cursor.exhausted and next_arrival is None
            exhausted_sources[relation] = exhausted
            self.observed.record_source(
                relation,
                tuples_read=cursor.consumed,
                tuples_passed=binding.tuples_passed,
                exhausted=exhausted,
            )
            self.events.append(
                SourceRateEvent(
                    phase_id=phase_id,
                    simulated_seconds=now,
                    relation=relation,
                    consumed=cursor.consumed,
                    next_arrival=next_arrival,
                    exhausted=exhausted,
                    promised_rate=cursor.promised_rate,
                    remote=cursor.is_remote,
                    arrived=(
                        cursor.arrived_by(now)
                        if cursor.arrived_by is not None
                        else None
                    ),
                )
            )
            if exhausted and relation not in self._exhausted_emitted:
                self._exhausted_emitted.add(relation)
                self.events.append(
                    SourceExhaustedEvent(
                        phase_id=phase_id,
                        simulated_seconds=now,
                        relation=relation,
                        tuples_read=cursor.consumed,
                    )
                )
            for attribute, detector in cursor.order_detectors.items():
                self.observed.record_ordering(relation, attribute, detector)
                key = (relation, attribute)
                if self._ordering_emitted.get(key) != detector.observed:
                    self._ordering_emitted[key] = detector.observed
                    ordering = self.observed.ordering_of(relation, attribute)
                    self.events.append(
                        OrderingObservedEvent(
                            phase_id=phase_id,
                            simulated_seconds=now,
                            relation=relation,
                            attribute=attribute,
                            direction=ordering.direction,
                            in_order_fraction=ordering.in_order_fraction,
                            observed=ordering.observed,
                        )
                    )
        for relations, selectivity in plan.observed_selectivities().items():
            # Only trust selectivities once a meaningful amount of data has
            # flowed through the subexpression — or once every participating
            # source is fully exhausted, in which case the observation is
            # *exact* no matter how tiny the inputs are (a 5-row dimension
            # table that has been read to the end yields a final
            # selectivity, which the old >= 10 threshold silently discarded).
            inputs_seen = min(
                (leaf_counts.get(rel, 0) for rel in relations), default=0
            )
            all_exhausted = all(
                exhausted_sources.get(rel, False) for rel in relations
            )
            if inputs_seen >= 10 or (inputs_seen >= 1 and all_exhausted):
                previous = self.observed.selectivities.get(relations)
                if previous != selectivity:
                    self.events.append(
                        SelectivityDriftEvent(
                            phase_id=phase_id,
                            simulated_seconds=now,
                            relations=relations,
                            selectivity=selectivity,
                            previous=previous,
                        )
                    )
                self.observed.record_selectivity(relations, selectivity)
        self._flag_multiplicative_joins(plan, leaf_counts)
        self.snapshot(plan)
        return self.observed

    def snapshot(self, plan: PipelinedPlan) -> MonitorSnapshot:
        """Append one :class:`MonitorSnapshot` for the plan's current state.

        Node-output dictionaries are copied *incrementally*: when nothing
        changed since the previous snapshot the previous dictionary object is
        shared (snapshots are never mutated), and when something did change
        the freshly built counter dict is adopted as-is — either way the
        per-poll deep copy of every observation is gone, while the recorded
        snapshot contents stay exactly what the old full-copy behaviour
        produced (pinned by a micro-test).
        """
        outputs = plan.node_output_counts()
        previous = self._last_node_outputs
        if previous is not None and previous == outputs:
            outputs = previous
        self._last_node_outputs = outputs
        snapshot = MonitorSnapshot(
            phase_id=plan.phase_id,
            simulated_seconds=plan.clock.now,
            tuples_read=plan.statistics.tuples_read,
            node_outputs=outputs,
        )
        self.snapshots.append(snapshot)
        return snapshot

    # -- adaptation events --------------------------------------------------------

    def drain_events(self) -> list[AdaptationEvent]:
        """Return and clear the events accumulated since the last drain."""
        events = self.events
        self.events = []
        return events

    def _flag_multiplicative_joins(
        self, plan: PipelinedPlan, leaf_counts: dict[str, int]
    ) -> None:
        """Flag join predicates whose observed output exceeds both inputs."""
        for node in plan.nodes:
            left_size = self._input_size(plan, node.left_relations, leaf_counts)
            right_size = self._input_size(plan, node.right_relations, leaf_counts)
            if left_size < 10 or right_size < 10:
                continue
            output = node.output_count
            largest_input = max(left_size, right_size)
            if output > largest_input:
                factor = output / largest_input
                for predicate in self._predicates_of(node.left_relations, node.right_relations):
                    self.observed.flag_multiplicative(predicate, factor)

    def _input_size(
        self, plan: PipelinedPlan, relations: frozenset, leaf_counts: dict[str, int]
    ) -> int:
        """Number of tuples that entered a join input (leaf count or child output)."""
        if len(relations) == 1:
            (relation,) = relations
            return leaf_counts.get(relation, 0)
        for node in plan.nodes:
            if node.relations == relations:
                return node.output_count
        return 0

    def _predicates_of(
        self, left: frozenset, right: frozenset
    ) -> tuple[JoinPredicate, ...]:
        return self.query.predicates_between(left, right)

    # -- reporting ----------------------------------------------------------------

    def poll_count(self) -> int:
        return len(self.snapshots)
