"""Remote sources: relations streamed through a network model."""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

from repro.relational.relation import Relation
from repro.sources.network import InstantNetworkModel, NetworkModel
from repro.sources.source import (
    Columns,
    DataSource,
    check_stream_arguments,
    column_chunks,
)


class RemoteSource(DataSource):
    """A relation delivered over a (possibly slow, bursty) network connection.

    Each :meth:`open_stream_columns` call simulates a fresh connection, but the
    per-tuple arrival times are computed **once** per (source, network) pair
    and cached in :attr:`arrival_schedule`.  Repeated opens within one
    experiment — a corrective phase switch re-opening a source, or several
    engine configurations executing over the same registered sources — must
    observe byte-for-byte identical arrival times, otherwise the simulated
    clocks of the compared engines skew apart.  (The network models are
    deterministic per seed, so caching also avoids regenerating the schedule
    on every access.)
    """

    def __init__(
        self,
        relation: Relation,
        network: NetworkModel | None = None,
        name: str | None = None,
        promised_rate: float | None = None,
    ) -> None:
        """``promised_rate`` is the delivery rate (tuples/second) the
        provider *claims* for this connection — telemetry for the
        source-rate adaptation policy, which compares it against observed
        arrivals.  It does not influence the actual arrival schedule (that
        is the network model's job), so a promise can lie."""
        super().__init__(name or relation.name, relation.schema)
        self.relation = relation
        self.network = network or InstantNetworkModel()
        self.promised_rate = promised_rate
        self._arrival_schedule: tuple[float, ...] | None = None
        #: number of streams opened over this source's lifetime.  One source
        #: object is shared by every query that references it (each with its
        #: own cursor), so this counts the connections the pool absorbed.
        self.open_count = 0
        #: replica sources serving the same rows, in failover order (see
        #: :meth:`register_mirror`).
        self.mirrors: list["RemoteSource"] = []

    @property
    def arrival_schedule(self) -> tuple[float, ...]:
        """Cached arrival time of every tuple of this source."""
        if self._arrival_schedule is None:
            self._arrival_schedule = tuple(
                self.network.arrival_times(len(self.relation))
            )
        return self._arrival_schedule

    def arrived_by(
        self, now: float, offset: int = 0, start_at: float | None = None
    ) -> int:
        """How many tuples the link has delivered by simulated time ``now``.

        This is what a real client observes in its receive buffer, and it is
        the honest signal for rate adaptivity: a source whose tuples sit
        unread behind other work has *delivered* them even though the cursor
        has not consumed them yet (consumption lag is the engine's choice,
        not the source's failure).  ``offset`` and ``start_at`` name a stream
        as :meth:`open_stream_columns` does; the count is numbered from row
        0, so rate telemetry stays continuous across a failover.
        """
        schedule = self.arrival_schedule
        if start_at is None:
            return bisect_right(schedule, now, offset)
        # The same sums the resumed stream's arrival column holds: comparing
        # ``t <= now - start_at`` instead could round the other way.
        remaining = max(len(schedule) - offset, 0)
        return offset + bisect_right(
            schedule, now, 0, remaining, key=lambda t: start_at + t
        )

    def open_stream_columns(
        self, batch_size: int, offset: int = 0, start_at: float | None = None
    ) -> Iterator[Columns]:
        """Column chunks over the cached schedule: one row slice plus one
        schedule slice each, the schedule computed at most once per
        (source, network) pair.  A connection opened at ``start_at`` — a
        mirror taking over mid-query — sees the remaining rows on this
        source's schedule re-based to it, as a fresh client would."""
        check_stream_arguments(batch_size, offset)
        self.open_count += 1
        rows = self.relation.rows[offset:] if offset else self.relation.rows
        schedule = self.arrival_schedule
        if start_at is not None:
            schedule = tuple(start_at + t for t in schedule[: len(rows)])
        elif offset:
            schedule = schedule[offset:]
        return column_chunks(rows, schedule, batch_size)

    def __len__(self) -> int:
        return len(self.relation)

    # -- mirrors ---------------------------------------------------------------------

    def register_mirror(self, mirror: "RemoteSource") -> "RemoteSource":
        """Register a replica that can resume this source's stream; returns it.

        Failover correctness rests on the mirror serving **the same rows in
        the same order** — the resumed stream continues from a row offset,
        so any divergence would silently change answers.  Both the row
        identity and the schema are therefore validated here, at
        registration time, rather than trusted at failover time.
        """
        if tuple(mirror.schema.names) != tuple(self.schema.names):
            raise ValueError(
                f"mirror {mirror.name!r} schema {mirror.schema.names} does not "
                f"match primary {self.name!r} schema {self.schema.names}"
            )
        if mirror.relation.rows != self.relation.rows:
            raise ValueError(
                f"mirror {mirror.name!r} does not serve the same rows as "
                f"primary {self.name!r} (failover would change answers)"
            )
        self.mirrors.append(mirror)
        return mirror
