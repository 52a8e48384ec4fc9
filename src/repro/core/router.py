"""The router's window pre-sort for the complementary join pair.

Section 3.3: "the third adaptive component ... is a router module that helps
the split operator decide what subplan is most appropriate for an incoming
tuple.  The router is given a specification of each operator's constraints
(e.g., order), and it may perform some additional pre-processing before
routing (e.g., pre-sorting a window of the data)."

The one router this reproduction needs is the complementary join pair's
(Section 5), and :mod:`repro.core.complementary` makes its order-conformance
decision inline.  What lives here is that router's pre-processing step:
:class:`PriorityQueueReorderer`, the bounded window that pre-sorts tuples
before the order check.
"""

from __future__ import annotations

import heapq

from repro.engine.cost import ExecutionMetrics
from repro.relational.schema import Schema


class PriorityQueueReorderer:
    """Buffers up to ``capacity`` tuples in a min-heap to repair local disorder.

    The complementary-join experiment (Section 5) shows that holding a small
    priority queue (1024 tuples in the paper) in front of the order router
    dramatically increases the share of data the merge join can handle when
    the input is only mostly sorted.  ``push`` returns the tuples released by
    the queue (zero or one while filling, one once full); ``drain`` releases
    the rest at end of stream, in key order.
    """

    def __init__(
        self,
        schema: Schema,
        key: str,
        capacity: int = 1024,
        metrics: ExecutionMetrics | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._key_pos = schema.position(key)
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self._heap: list[tuple] = []
        self._sequence = 0
        self.buffered_high_water = 0

    def push(self, row: tuple) -> list[tuple]:
        """Add a tuple; return the tuples released (possibly empty)."""
        key = row[self._key_pos]
        # The sequence number breaks ties so heapq never compares payload rows.
        entry = (key, self._sequence, row)
        self._sequence += 1
        self.metrics.comparisons += 1
        if len(self._heap) >= self.capacity:
            # Full: the smallest of (buffered + incoming) is released, so the
            # buffer holds exactly ``capacity`` tuples — the paper's Section 5
            # queue size — never ``capacity + 1``.
            self.metrics.comparisons += 1
            released = heapq.heappushpop(self._heap, entry)
            self.buffered_high_water = max(self.buffered_high_water, len(self._heap))
            return [released[2]]
        heapq.heappush(self._heap, entry)
        self.buffered_high_water = max(self.buffered_high_water, len(self._heap))
        return []

    def drain(self) -> list[tuple]:
        """Release all remaining buffered tuples in key order."""
        released = []
        while self._heap:
            self.metrics.comparisons += 1
            released.append(heapq.heappop(self._heap)[2])
        return released

    def __len__(self) -> int:
        return len(self._heap)
