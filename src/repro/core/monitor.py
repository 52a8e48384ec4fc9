"""Execution monitoring: turning operator counters into optimizer knowledge.

Section 3.3: every operator keeps an output counter, state structures expose
their cardinalities, and the re-optimizer combines these into subexpression
selectivities.  The monitor also flags "multiplicative" join predicates —
joins whose output exceeds both inputs — so future estimates involving them
are scaled up conservatively (Section 4.2).

Selectivities, orderings and source exhaustion accumulate in
:class:`ObservedStatistics`.  Arrival rates are the one observation policies
window themselves: every poll also queues one
:class:`~repro.adaptivity.events.SourceRateEvent` per source, which the
adaptivity kernel's controller drains (:meth:`ExecutionMonitor.drain_events`)
and hands to its policies — the monitor itself never decides anything.
"""

from __future__ import annotations

from repro.adaptivity.events import SourceRateEvent
from repro.engine.pipelined import PipelinedPlan, SourceCursor
from repro.optimizer.statistics import ObservedStatistics
from repro.relational.algebra import SPJAQuery
from repro.relational.expressions import JoinPredicate


class ExecutionMonitor:
    """Collects runtime statistics from a running pipelined plan."""

    def __init__(self, query: SPJAQuery) -> None:
        self.query = query
        self.observed = ObservedStatistics()
        #: rate samples queued since the last drain
        self.events: list[SourceRateEvent] = []
        self._polls = 0

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
            for attribute, detector in cursor.order_detectors.items():
                self.observed.record_ordering(relation, attribute, detector)
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
                self.observed.record_selectivity(relations, selectivity)
        self._flag_multiplicative_joins(plan, leaf_counts)
        self._polls += 1
        return self.observed

    # -- rate samples ---------------------------------------------------------------

    def drain_events(self) -> list[SourceRateEvent]:
        """Return and clear the rate samples queued since the last drain."""
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
        """How many times :meth:`observe` has run."""
        return self._polls
