"""Source-rate telemetry: the one observation the monitor hands the policies.

Everything else the monitor learns (selectivities, orderings, exhaustion)
lands in :class:`~repro.optimizer.statistics.ObservedStatistics`, which
policies read from their decision context.  Arrival rates are different:
policies window them over their own history, so at each poll the
:class:`~repro.core.monitor.ExecutionMonitor` queues one raw
:class:`SourceRateEvent` per source, and the
:class:`~repro.adaptivity.controller.AdaptationController` hands the queue
to every policy's ``observe`` before any ``decide`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.catalog import Catalog

#: a source has *collapsed* when it delivered less than this fraction of what
#: its promised rate predicts by now
COLLAPSE_FRACTION = 0.5
#: a promise is only judged once this many tuples *should* have arrived
MIN_EXPECTED_TUPLES = 16


@dataclass(repr=False)
class SourceRateEvent:
    """Per-source arrival-rate / stall telemetry from one cursor.

    ``phase_id`` and ``simulated_seconds`` say when the poll observed it;
    ``consumed`` is the cursor's cumulative consumption; ``next_arrival`` is
    the arrival time of the next pending tuple (``None`` when the stream is
    exhausted); ``promised_rate`` is the catalog's / source's claimed
    delivery rate in tuples per simulated second (``None`` when the provider
    promises nothing).  Rate *estimation* is left to the consuming policy —
    the event records raw telemetry so different policies can window it
    differently.
    """

    phase_id: int
    simulated_seconds: float
    relation: str
    consumed: int
    next_arrival: float | None
    exhausted: bool
    promised_rate: float | None = None
    remote: bool = False
    #: tuples the source has *delivered* by now (``None`` when the source
    #: cannot report it).  Delivery, not consumption, judges a rate promise:
    #: tuples sitting unread in the receive buffer are the engine's backlog,
    #: not the source's failure.
    arrived: int | None = None

    @property
    def stall_seconds(self) -> float:
        """How far in the future the next pending tuple arrives (0 if ready).

        ``next_arrival is None`` is ambiguous on its own: an *exhausted*
        stream stalls nothing (0.0), but a live stream that cannot schedule
        its next arrival — e.g. a primary mid-outage before a mirror
        failover re-establishes a schedule — is an unbounded stall, and
        flooring it at 0 would tell the rate policy that exactly the stalled
        source it should guard is instantly ready.  The non-exhausted
        no-arrival case is therefore conservative (``inf``); consumers cap
        it with their own remaining-window bound.
        """
        if self.next_arrival is None:
            return 0.0 if self.exhausted else float("inf")
        return max(self.next_arrival - self.simulated_seconds, 0.0)

    @property
    def delivered(self) -> int:
        """Tuples the source has delivered (consumption is a lower bound)."""
        arrived = self.arrived
        return self.consumed if arrived is None else max(arrived, self.consumed)

    def __repr__(self) -> str:
        if self.exhausted:
            pending = "exhausted"
        elif self.next_arrival is None:
            pending = "pending=?"
        else:
            pending = f"next_arrival={self.next_arrival:.3f}s"
        promise = (
            f", promised={self.promised_rate:.0f}tps"
            if self.promised_rate is not None
            else ""
        )
        return (
            f"SourceRateEvent(phase={self.phase_id}, "
            f"t={self.simulated_seconds:.3f}s, {self.relation}: "
            f"consumed={self.consumed}, {pending}{promise})"
        )


def promised_rate_of(event: SourceRateEvent, catalog: Catalog) -> float | None:
    """The event's promised rate, else the catalog's for its relation."""
    if event.promised_rate is None and event.relation in catalog:
        return catalog.statistics(event.relation).promised_rate
    return event.promised_rate


def delivery_collapsed(
    delivered: int, promised_rate: float | None, now: float, total: float | None
) -> bool:
    """Has a source delivered under ``COLLAPSE_FRACTION`` of what its promise
    predicts by ``now``?  Judged only once ``MIN_EXPECTED_TUPLES`` should have
    arrived.  A promise covers only the data that exists: ``total`` (the
    relation's cardinality, when known) caps the expectation, or a source that
    delivered *everything* early would read as collapsed as time passes.
    The rate and failover policies both judge a sample through
    :func:`event_collapsed`, so this is the one collapse rule."""
    if promised_rate is None or promised_rate <= 0:
        return False
    expected = promised_rate * now
    if total is not None:
        expected = min(expected, float(total))
    return (
        expected >= MIN_EXPECTED_TUPLES
        and delivered < COLLAPSE_FRACTION * expected
    )


def event_collapsed(event: SourceRateEvent, catalog: Catalog) -> bool:
    """:func:`delivery_collapsed` of one sample, promise and cardinality
    completed from the catalog.  Rate and failover policies each check
    exhaustion first."""
    total = (
        catalog.statistics(event.relation).cardinality
        if event.relation in catalog
        else None
    )
    return delivery_collapsed(
        event.delivered,
        promised_rate_of(event, catalog),
        event.simulated_seconds,
        total,
    )
