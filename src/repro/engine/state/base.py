"""Common interface for state structures."""

from __future__ import annotations

from typing import Iterator

from repro.relational.schema import Schema


class StateStructure:
    """Base class for the stores behind stateful operators.

    Every structure stores tuples laid out according to ``schema``, keyed on
    the attribute ``key``.  The stitch-up planner reads a registered
    structure through :meth:`scan` and re-keys it when its key is the wrong
    one for the join at hand (Section 3.2, "state structure key
    compatibility").

    Subclasses must implement :meth:`insert`, :meth:`scan`, :meth:`probe`
    and ``len``.
    """

    def __init__(self, schema: Schema, key: str | None = None) -> None:
        self.schema = schema
        self.key = key

    def insert(self, row: tuple) -> None:
        raise NotImplementedError

    def scan(self) -> Iterator[tuple]:
        raise NotImplementedError

    def probe(self, key_value: object) -> list[tuple]:
        """Return all stored tuples whose key equals ``key_value``."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[tuple]:
        return self.scan()
