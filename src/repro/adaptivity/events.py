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
