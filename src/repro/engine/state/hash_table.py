"""Hash table state structure (the workhorse behind pipelined / hybrid hash joins)."""

from __future__ import annotations

from typing import Iterator

from repro.engine.state.base import StateStructure
from repro.relational.schema import Schema


class HashTableState(StateStructure):
    """Multimap from a key attribute's value to the tuples carrying it.

    This is the structure pipelined hash joins build on each input, hybrid
    hash joins build on their inner, and the stitch-up join probes.  It also
    supports *re-keying* (:meth:`rehashed`) for a structure keyed on the
    wrong attribute for the join at hand (paper Section 3.4.3), and simulated
    partition-wise overflow (:meth:`spill_partition`), mirroring the
    XJoin-style overflow handling.  The stitch-up join re-keys through the
    same :meth:`insert_batch` but from its own ``_keyed_table``: its source
    may be a ``SortedRunState``, and it charges the inserts.
    """

    supports_key_access = True

    def __init__(self, schema: Schema, key: str) -> None:
        super().__init__(schema, key=key)
        self._key_pos = schema.position(key)
        self._buckets: dict[object, list[tuple]] = {}
        self._count = 0
        #: bucket keys currently marked as spilled to disk (simulation)
        self.spilled_keys: set[object] = set()

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

    def add_count(self, count: int) -> None:
        """Record ``count`` tuples inserted directly into :meth:`bucket_map`.

        The compiled engine's fused chains append to the bucket dictionary
        inline (sharing one key extraction between insert and probe) and
        report the inserted total here, keeping ``len(self)`` consistent.
        """
        self._count += count

    def probe(self, key_value: object) -> list[tuple]:
        return self._buckets.get(key_value, [])

    def probe_batch(self, key_values) -> list[list[tuple]]:
        """Probe many key values; returns one (possibly shared empty) bucket
        per key.  Callers must not mutate the returned buckets."""
        get = self._buckets.get
        empty: list[tuple] = []
        return [get(key_value, empty) for key_value in key_values]

    def bucket_map(self) -> dict[object, list[tuple]]:
        """Direct read-only view of the bucket dictionary.

        Exposed for the batched join's tight probe loop, which calls
        ``bucket_map().get`` directly to avoid a method call per tuple, and
        for the compiled engine, which closes over ``bucket_map().get`` for
        a whole corrective phase.  The dictionary's *identity* is stable for
        the lifetime of this state structure (inserts and spills mutate it
        in place; only :meth:`rehashed` builds a new structure), which is
        what makes that caching sound.  Callers must not mutate the returned
        mapping or its buckets.
        """
        return self._buckets

    def scan(self) -> Iterator[tuple]:
        for bucket in self._buckets.values():
            yield from bucket

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key_value: object) -> bool:
        return key_value in self._buckets

    def keys(self) -> Iterator[object]:
        return iter(self._buckets)

    def bucket_count(self) -> int:
        return len(self._buckets)

    def rehashed(self, new_key: str) -> "HashTableState":
        """Return a new hash table over the same tuples keyed on ``new_key``."""
        other = HashTableState(self.schema, new_key)
        other.insert_batch(list(self.scan()))
        return other

    # -- simulated overflow handling ------------------------------------------

    def spill_partition(self, predicate) -> int:
        """Mark every bucket whose key satisfies ``predicate`` as spilled.

        Returns the number of tuples in the spilled buckets.  Data remains in
        memory (this is a simulation of Tukwila's lazy partition swapping);
        the flag exists so overflow-coordination logic can be exercised and
        tested.
        """
        spilled = 0
        for key_value, bucket in self._buckets.items():
            if predicate(key_value):
                self.spilled_keys.add(key_value)
                spilled += len(bucket)
        if self.spilled_keys:
            self.swapped_to_disk = True
        return spilled

    def is_spilled(self, key_value: object) -> bool:
        return key_value in self.spilled_keys

    def unspill_all(self) -> None:
        self.spilled_keys.clear()
        self.swapped_to_disk = False
