"""Source abstractions: one sequential stream protocol.

A source is a schema plus one way to read it,
``open_stream_columns(batch_size, offset, start_at)``: a fresh access to
the rows from ``offset`` on, as ``(rows, arrivals)`` column chunks.  That
is the data-integration access model — "we limit access to the input
relations to be sequential only, and assume that they may change between
successive accesses" (Section 3.5) — and resuming a stream, whether an
envelope reconnecting or a mirror taking over a dead primary, is the same
call with an ``offset`` and a ``start_at``.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterator, Sequence

from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: one column chunk: rows, and their arrivals (``None``: every row at 0.0)
Columns = tuple[Sequence[tuple[object, ...]], Sequence[float] | None]


def check_stream_arguments(batch_size: int, offset: int) -> None:
    """Reject a chunk size below 1 or a negative offset."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if offset < 0:
        raise ValueError("offset must be >= 0")


def column_chunks(
    rows: Sequence[tuple[object, ...]],
    arrivals: Sequence[float] | None,
    batch_size: int,
) -> Iterator[Columns]:
    """Cut parallel row and arrival columns into chunks of ``batch_size``;
    arrivals never decrease, so a chunk whose last arrival is 0.0 is
    emitted with ``arrivals=None``."""
    for start in range(0, len(rows), batch_size):
        stop = start + batch_size
        if arrivals is None:
            yield rows[start:stop], None
        else:
            chunk = arrivals[start:stop]
            yield rows[start:stop], (None if chunk[-1] <= 0.0 else chunk)


class DataSource:
    """Base class for data sources: a schema and one sequential stream."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema

    def open_stream_columns(
        self, batch_size: int, offset: int = 0, start_at: float | None = None
    ) -> Iterator[Columns]:
        """Open a fresh access: chunks of up to ``batch_size`` rows from row
        ``offset`` on, each with a parallel, non-decreasing arrival column
        or ``None`` (every row at 0.0).  ``start_at=None`` reads on the
        source's own clock; a float opens the connection at that simulated
        instant.  Subclasses implement :meth:`_stream_columns`: this entry
        is wrapped per class by ``bench/trace.py``, which pins only it and
        the overrides of ``LocalSource`` and ``RemoteSource``.
        """
        check_stream_arguments(batch_size, offset)
        return self._stream_columns(batch_size, offset, start_at)

    def _stream_columns(
        self, batch_size: int, offset: int, start_at: float | None
    ) -> Iterator[Columns]:
        raise NotImplementedError

    def open_stream(
        self,
    ) -> Iterator[tuple[tuple[object, ...], float]]:
        """The stream as ``(row, arrival)`` pairs, read 256 rows ahead."""
        return chain.from_iterable(
            zip(rows, repeat(0.0) if arrivals is None else arrivals)
            for rows, arrivals in self.open_stream_columns(256)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"{type(self).__name__}({self.name!r})"


class LocalSource(DataSource):
    """A source whose data is already available on the query processor.

    Arrival times are all zero: the only cost of reading it is the engine's
    own per-tuple work.  Used for the "local data" experiments (Figure 2).
    """

    def __init__(self, relation: Relation) -> None:
        super().__init__(relation.name, relation.schema)
        self.relation = relation

    def open_stream_columns(
        self, batch_size: int, offset: int = 0, start_at: float | None = None
    ) -> Iterator[Columns]:
        """Plain row slices, arrivals implicitly all-zero.  No connection is
        opened, so ``start_at`` changes nothing."""
        check_stream_arguments(batch_size, offset)
        rows = self.relation.rows
        return column_chunks(rows[offset:] if offset else rows, None, batch_size)

    def __len__(self) -> int:
        return len(self.relation)
