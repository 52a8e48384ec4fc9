"""Hash table state structure (the workhorse behind pipelined / hybrid hash joins)."""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from repro.engine.state.base import StateStructure
from repro.relational.schema import Schema


class HashTableState(StateStructure):
    """Multimap from a key attribute's value to the tuples carrying it.

    This is the structure pipelined hash joins build on each input and hybrid
    hash joins build on their inner.  The stitch-up join re-keys a structure
    keyed on the wrong attribute for the join at hand (paper Section 3.4.3)
    through :meth:`insert_batch`, from its own ``_keyed_table``: its source
    may be a ``SortedRunState``, and it charges the inserts.
    """

    def __init__(self, schema: Schema, key: str) -> None:
        super().__init__(schema, key=key)
        self._key_pos = schema.position(key)
        self._buckets: dict[object, list[tuple]] = {}
        self._count = 0

    def insert(self, row: tuple) -> None:
        key_value = row[self._key_pos]
        bucket = self._buckets.get(key_value)
        if bucket is None:
            self._buckets[key_value] = [row]
        else:
            bucket.append(row)
        self._count += 1

    def insert_batch(self, rows: list[tuple]) -> None:
        """Insert many rows at once (the batched engine's hot path)."""
        key_pos = self._key_pos
        buckets = self._buckets
        for row in rows:
            key_value = row[key_pos]
            bucket = buckets.get(key_value)
            if bucket is None:
                buckets[key_value] = [row]
            else:
                bucket.append(row)
        self._count += len(rows)

    def add_count(self, count: int) -> None:  # lint: ignore[reachability.unread] generated chains call it
        """Record ``count`` tuples inserted directly into :meth:`bucket_map`.

        The compiled engine's fused chains append to the bucket dictionary
        inline (sharing one key extraction between insert and probe) and
        report the inserted total here, keeping ``len(self)`` consistent.
        """
        self._count += count

    def probe(self, key_value: object) -> list[tuple]:
        return self._buckets.get(key_value, [])

    def bucket_map(self) -> dict[object, list[tuple]]:
        """Direct read-only view of the bucket dictionary.

        Exposed for the batched join's tight probe loop, which calls
        ``bucket_map().get`` directly to avoid a method call per tuple, and
        for the compiled engine, which closes over ``bucket_map().get`` for
        a whole corrective phase.  The dictionary's *identity* is stable for
        the lifetime of this state structure (inserts mutate it in place),
        which is what makes that caching sound.  Callers must not mutate the
        returned mapping or its buckets.
        """
        return self._buckets

    def scan(self) -> Iterator[tuple]:
        return chain.from_iterable(self._buckets.values())

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key_value: object) -> bool:
        return key_value in self._buckets
