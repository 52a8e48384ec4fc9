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
a *sustained* outage — ``OUTAGE_POLLS`` consecutive polls in which the
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
from repro.adaptivity.events import SourceRateEvent, event_collapsed
from repro.adaptivity.policies import AdaptationPolicy


class MirrorFailoverPolicy(AdaptationPolicy):
    """Re-point cursors of sources in sustained outage at registered mirrors."""

    name = "mirror_failover"

    #: consecutive outage polls required before failing over — one bad poll
    #: is noise, a streak is an outage
    OUTAGE_POLLS = 2

    def __init__(self, catalog, stall_threshold_seconds: float = 0.05) -> None:
        """``stall_threshold_seconds``: a poll counts toward the outage
        streak when the source's next arrival is at least this far away (or
        unscheduled); the delivery-deficit arm of outage detection is the
        rate policy's collapse rule."""
        self.catalog = catalog
        self.stall_threshold_seconds = stall_threshold_seconds

    # -- outage detection -------------------------------------------------------------

    def _outage(self, event: SourceRateEvent) -> bool:
        """Does this poll look like the source is down (not merely busy)?"""
        if event.exhausted:
            return False
        stalled = event.stall_seconds >= self.stall_threshold_seconds
        return stalled or event_collapsed(event, self.catalog)

    # -- hooks ------------------------------------------------------------------------

    def observe(self, run: AdaptationRun, event: SourceRateEvent) -> None:
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
            if streaks[relation] < self.OUTAGE_POLLS:
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
                        f"({self.OUTAGE_POLLS} polls, "
                        f"{cursor.consumed} tuples consumed); resuming "
                        f"remainder from mirror {mirror.name!r}"
                    ),
                    policy=self.name,
                )
            )
        return actions or None
