"""Mirror failover: resume a dead source's stream from a replica.

Data-integration sources fail mid-query: a primary that delivered a healthy
opening burst can collapse into an outage with most of its data still
pending.  The rate policy's answer (gate the plan behind the stall) keeps
the engine busy but cannot conjure the missing tuples — completion still
waits on the primary's recovery.  When the catalog knows a *mirror* — a
replica registered on the :class:`~repro.sources.remote.RemoteSource` that
serves the same rows — the right move is to abandon the primary and fetch
the **remainder** of the relation from the mirror.

:class:`MirrorFailoverPolicy` watches :class:`SourceRateEvent` telemetry for
a *sustained* outage — ``outage_polls`` consecutive polls in which the
source is either stalled past ``stall_threshold_seconds`` or decisively
behind its promised delivery — and then proposes a
:class:`~repro.adaptivity.controller.FailoverSourceAction` carrying the
mirror and the current instant.  The controller applies it with
``cursor.failover_to(mirror, now)``, one ``open_stream_columns`` call on
the mirror at the cursor's consumed offset: the same rows the primary
would have produced from there, on the mirror's arrival schedule starting
now.  The running cursor is re-pointed in place, so the executing plan never
learns the source changed — answers are **bit-identical by construction**
(pinned by the mirror-failover differential suite); only arrival times, and
therefore completion time, move.

Each relation fails over at most once per mirror (mirrors are consumed in
registration order), and the outage streak resets on any healthy poll, so a
slow-but-alive source is never flapped onto a mirror by one bad interval.
"""

from __future__ import annotations

from repro.adaptivity.controller import (
    AdaptationContext,
    AdaptationRun,
    FailoverSourceAction,
)
from repro.adaptivity.events import SourceRateEvent
from repro.adaptivity.policies import AdaptationPolicy
from repro.adaptivity.rate import MIN_EXPECTED_TUPLES


class MirrorFailoverPolicy(AdaptationPolicy):
    """Re-point cursors of sources in sustained outage at registered mirrors."""

    name = "mirror_failover"
    handles_events = frozenset({"SourceRateEvent"})
    # Exhausted sources cannot be "down" (observe treats exhausted rate
    # telemetry as healthy); drift and ordering are other policies' domain.
    ignores_events = frozenset(
        {
            "SelectivityDriftEvent",
            "OrderingObservedEvent",
            "SourceExhaustedEvent",
        }
    )

    def __init__(
        self,
        catalog,
        stall_threshold_seconds: float = 0.05,
        outage_polls: int = 2,
        collapse_fraction: float = 0.5,
        min_expected_tuples: int = MIN_EXPECTED_TUPLES,
    ) -> None:
        """``stall_threshold_seconds``: a poll counts toward the outage
        streak when the source's next arrival is at least this far away (or
        unscheduled).  ``outage_polls``: consecutive outage polls required
        before failing over — one bad poll is noise, a streak is an outage.
        ``collapse_fraction`` / ``min_expected_tuples``: the delivery-deficit
        arm of outage detection, mirroring the rate policy's collapse bar."""
        if outage_polls < 1:
            raise ValueError("outage_polls must be >= 1")
        self.catalog = catalog
        self.stall_threshold_seconds = stall_threshold_seconds
        self.outage_polls = outage_polls
        self.collapse_fraction = collapse_fraction
        self.min_expected_tuples = min_expected_tuples

    # -- outage detection -------------------------------------------------------------

    def _promised_rate(self, event: SourceRateEvent) -> float | None:
        if event.promised_rate is not None:
            return event.promised_rate
        if event.relation in self.catalog:
            return self.catalog.statistics(event.relation).promised_rate
        return None

    def _delivery_collapsed(self, event: SourceRateEvent) -> bool:
        """Delivered decisively less than the promise predicts by now?"""
        promised = self._promised_rate(event)
        if promised is None or promised <= 0:
            return False
        expected = promised * event.simulated_seconds
        if event.relation in self.catalog:
            cardinality = self.catalog.statistics(event.relation).cardinality
            if cardinality is not None:
                expected = min(expected, float(cardinality))
        if expected < self.min_expected_tuples:
            return False
        delivered = event.consumed
        if event.arrived is not None:
            delivered = max(event.arrived, event.consumed)
        return delivered < self.collapse_fraction * expected

    def _outage(self, event: SourceRateEvent) -> bool:
        """Does this poll look like the source is down (not merely busy)?"""
        if event.exhausted:
            return False
        stalled = event.stall_seconds >= self.stall_threshold_seconds
        return stalled or self._delivery_collapsed(event)

    # -- hooks ------------------------------------------------------------------------

    def observe(self, run: AdaptationRun, event) -> None:
        if not isinstance(event, SourceRateEvent):
            return
        streaks = run.scratch(self).setdefault("streaks", {})
        if self._outage(event):
            streaks[event.relation] = streaks.get(event.relation, 0) + 1
        else:
            streaks[event.relation] = 0

    def decide(self, run: AdaptationRun, context: AdaptationContext):
        state = run.scratch(self)
        streaks: dict[str, int] = state.get("streaks", {})
        if not streaks:
            return None
        used: dict[str, int] = state.setdefault("mirrors_used", {})
        actions = []
        for relation in sorted(streaks):
            if relation not in context.query.relations:
                continue
            if streaks[relation] < self.outage_polls:
                continue
            source = run.sources.get(relation)
            mirrors = getattr(source, "mirrors", ()) or ()
            index = used.get(relation, 0)
            if index >= len(mirrors):
                continue
            cursor = run.cursors.get(relation)
            if cursor is None or not hasattr(cursor, "failover_to"):
                continue
            mirror = mirrors[index]
            used[relation] = index + 1
            streaks[relation] = 0
            actions.append(
                FailoverSourceAction(
                    relation=relation,
                    mirror=mirror,
                    start_at=context.now,
                    reason=(
                        f"{relation} in sustained outage "
                        f"({self.outage_polls} polls, "
                        f"{cursor.consumed} tuples consumed); resuming "
                        f"remainder from mirror {mirror.name!r}"
                    ),
                    policy=self.name,
                )
            )
        return actions or None

    def describe(self) -> dict[str, object]:
        return {
            "policy": self.name,
            "stall_threshold_seconds": self.stall_threshold_seconds,
            "outage_polls": self.outage_polls,
            "collapse_fraction": self.collapse_fraction,
        }
