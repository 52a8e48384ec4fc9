"""Source abstractions."""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.relational.relation import Relation
from repro.relational.schema import Schema


class DataSource:
    """Base class for data sources.

    A source exposes only a schema and a sequential stream of
    ``(row, arrival_time)`` pairs — mirroring the data-integration access
    model: "we limit access to the input relations to be sequential only, and
    assume that they may change between successive accesses" (Section 3.5).
    Each call to :meth:`open_stream` represents a fresh access.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema

    def open_stream(self) -> Iterator[tuple[tuple, float]]:
        raise NotImplementedError

    def open_stream_batches(self, batch_size: int) -> Iterator[list[tuple[tuple, float]]]:
        """Yield the stream in chunks of up to ``batch_size`` items.

        This is the prefetch primitive of the batched execution mode: a
        cursor pulls one chunk ahead instead of one tuple ahead.  The default
        implementation chunks :meth:`open_stream`; sources whose data is
        already materialized override it with direct slicing.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        batch: list[tuple[tuple, float]] = []
        for item in self.open_stream():
            batch.append(item)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    def open_stream_columns(
        self, batch_size: int
    ) -> Iterator[tuple[Sequence[tuple], Sequence[float] | None]]:
        """Yield the stream as ``(rows, arrivals)`` column chunks.

        ``arrivals`` is either a sequence parallel to ``rows`` (non-decreasing
        per the source contract) or ``None``, meaning *every* row of the chunk
        arrives at time 0.0 — the representation that lets cursors consume
        local data with plain slices instead of per-tuple pair unpacking.
        Materialized sources override this with direct slicing.  A source
        that emits columns natively implements :meth:`_stream_columns` and
        leaves this, the one entry a cursor calls, alone: the benchmark's
        ``io.pull`` span is wrapped around this attribute from outside
        (``bench/trace.py``).  Once the benchmark installs a sink instead
        (ROADMAP items 3(a) and 7) the pair collapses into a plain override.
        """
        return self._stream_columns(batch_size)

    def _stream_columns(
        self, batch_size: int
    ) -> Iterator[tuple[Sequence[tuple], Sequence[float] | None]]:
        """Default columns: :meth:`open_stream_batches` transposed once per chunk."""
        for batch in self.open_stream_batches(batch_size):
            if not batch:
                continue
            rows, arrivals = zip(*batch)
            yield rows, (None if max(arrivals) <= 0.0 else arrivals)

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

    def open_stream(self) -> Iterator[tuple[tuple, float]]:
        for row in self.relation.rows:
            yield row, 0.0

    def open_stream_batches(self, batch_size: int) -> Iterator[list[tuple[tuple, float]]]:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        rows = self.relation.rows
        for start in range(0, len(rows), batch_size):
            yield [(row, 0.0) for row in rows[start : start + batch_size]]

    def open_stream_columns(
        self, batch_size: int
    ) -> Iterator[tuple[Sequence[tuple], None]]:
        """Local data: plain row slices, arrivals implicitly all-zero."""
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        rows = self.relation.rows
        for start in range(0, len(rows), batch_size):
            yield rows[start : start + batch_size], None

    def __len__(self) -> int:
        return len(self.relation)
