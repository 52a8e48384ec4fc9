"""Sorted-run state: the bounded active window behind the pipelined merge join.

A :class:`SortedRunState` holds one input of a
:class:`~repro.engine.pipelined_merge.PipelinedMergeJoinNode` in two tiers:

* the **active run** — tuples kept sorted on the join key (append fast path
  for in-order arrivals, binary-search insertion for stragglers) and probed
  by every arrival of the other side;
* the **archive** — tuples the node has evicted because the other side's
  watermark moved past them.  Archived tuples model Tukwila's lazily swapped
  overflow partitions: they stay addressable (a keyed bucket map), but only
  *late* arrivals of the other side — whose key falls below the advertised
  eviction bound — ever probe them.

The two tiers together always contain the complete input consumed so far, so
``scan()``/``len()`` (what the stitch-up phase and the state registry see)
are exactly what a hash table would have held; only the *active* share —
whose peak the node reports as its memory footprint — shrinks when the
inputs really are sorted.
"""

from __future__ import annotations

import bisect
from typing import Iterator

from repro.engine.state.base import StateStructure
from repro.relational.schema import Schema

#: compact the lazily-consumed head of the active run once it exceeds this
_COMPACT_THRESHOLD = 512


class SortedRunState(StateStructure):
    """Two-tier (active sorted run + evicted archive) merge-join state."""

    def __init__(self, schema: Schema, key: str) -> None:
        super().__init__(schema, key=key)
        self._key_pos = schema.position(key)
        #: active run, ascending on the key regardless of stream direction
        #: (direction only drives which *end* the owning node evicts from)
        self._keys: list[object] = []
        self._rows: list[tuple] = []
        self._head = 0  # logical start of the active run (lazy front eviction)
        self._archive: dict[object, list[tuple]] = {}
        self._archived = 0
        self.peak_active = 0

    # -- insertion --------------------------------------------------------------

    def insert(self, row: tuple) -> None:
        key_value = row[self._key_pos]
        keys = self._keys
        if not keys or len(keys) == self._head or key_value >= keys[-1]:
            keys.append(key_value)
            self._rows.append(row)
        else:
            idx = bisect.bisect_right(keys, key_value, self._head)
            keys.insert(idx, key_value)
            self._rows.insert(idx, row)
        active = len(keys) - self._head
        if active > self.peak_active:
            self.peak_active = active

    # -- probing ----------------------------------------------------------------

    def probe_active(self, key_value: object) -> list[tuple]:
        lo = bisect.bisect_left(self._keys, key_value, self._head)
        hi = bisect.bisect_right(self._keys, key_value, self._head)
        return self._rows[lo:hi]

    def probe_archive(self, key_value: object) -> list[tuple]:
        return self._archive.get(key_value, [])

    def probe(self, key_value: object) -> list[tuple]:
        """All stored tuples with this key, across both tiers."""
        return self.probe_active(key_value) + self.probe_archive(key_value)

    # -- eviction ---------------------------------------------------------------

    def _archive_row(self, key_value: object, row: tuple) -> None:
        bucket = self._archive.get(key_value)
        if bucket is None:
            self._archive[key_value] = [row]
        else:
            bucket.append(row)
        self._archived += 1

    def evict_below(self, bound: object) -> int:
        """Archive active tuples with key strictly below ``bound`` (ascending
        streams evict from the front).  Returns how many were archived."""
        keys = self._keys
        idx = bisect.bisect_left(keys, bound, self._head)
        moved = idx - self._head
        for i in range(self._head, idx):
            self._archive_row(keys[i], self._rows[i])
        self._head = idx
        if self._head >= _COMPACT_THRESHOLD and self._head * 2 >= len(keys):
            del keys[: self._head]
            del self._rows[: self._head]
            self._head = 0
        return moved

    def evict_above(self, bound: object) -> int:
        """Archive active tuples with key strictly above ``bound`` (descending
        streams evict from the back)."""
        keys = self._keys
        idx = bisect.bisect_right(keys, bound, self._head)
        moved = len(keys) - idx
        for i in range(idx, len(keys)):
            self._archive_row(keys[i], self._rows[i])
        del keys[idx:]
        del self._rows[idx:]
        return moved

    # -- inspection -------------------------------------------------------------

    def active_size(self) -> int:
        return len(self._keys) - self._head

    def scan(self) -> Iterator[tuple]:
        for bucket in self._archive.values():
            yield from bucket
        yield from self._rows[self._head :]

    def __len__(self) -> int:
        return self.active_size() + self._archived
