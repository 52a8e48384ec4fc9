"""In-memory relations (base tables and materialized intermediate results)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.relational.schema import Schema


@dataclass
class Relation:
    """A named, schema-ful collection of value tuples.

    Base tables produced by the workload generator, source snapshots and
    materialized intermediate results are all ``Relation`` instances.  The
    class deliberately stays close to a list of tuples: the execution engine
    streams over relations via iterators and never mutates them in place
    (matching the paper's "sequential access only, data may change between
    accesses" source model — a new access simply builds a new Relation).
    """

    name: str
    schema: Schema
    rows: list[tuple] = field(default_factory=list)

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    @property
    def cardinality(self) -> int:
        """Number of tuples (paper terminology)."""
        return len(self.rows)

    # -- convenience accessors -------------------------------------------------

    def column(self, attribute: str) -> list:
        """Return all values of ``attribute`` as a list."""
        pos = self.schema.position(attribute)
        return [row[pos] for row in self.rows]

    def distinct_count(self, attribute: str) -> int:
        """Number of distinct values in ``attribute``."""
        pos = self.schema.position(attribute)
        return len({row[pos] for row in self.rows})

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"Relation({self.name!r}, {len(self.rows)} rows, schema={self.schema.names})"
