"""Tests for the router's window pre-sort (the complementary pair's reorderer)."""

import pytest

from repro.core.router import PriorityQueueReorderer
from repro.relational.schema import Schema

SCHEMA = Schema.from_names(["k", "v"])


class TestPriorityQueueReorderer:
    def test_releases_in_key_order(self):
        reorderer = PriorityQueueReorderer(SCHEMA, "k", capacity=3)
        released = []
        for key in [5, 1, 4, 2, 3]:
            released.extend(reorderer.push((key, None)))
        released.extend(reorderer.drain())
        assert [row[0] for row in released] == [1, 2, 3, 4, 5]

    def test_capacity_controls_buffering(self):
        reorderer = PriorityQueueReorderer(SCHEMA, "k", capacity=2)
        assert reorderer.push((3, None)) == []
        assert reorderer.push((1, None)) == []
        released = reorderer.push((2, None))
        assert released == [(1, None)]
        assert len(reorderer) == 2
        assert reorderer.buffered_high_water == 2

    def test_buffer_never_exceeds_capacity(self):
        """Regression: a "capacity" queue used to buffer capacity + 1 tuples
        (release happened only when len(heap) > capacity), so the reported
        high-water mark exceeded the paper's Section 5 queue size."""
        capacity = 4
        reorderer = PriorityQueueReorderer(SCHEMA, "k", capacity=capacity)
        released = []
        for key in [9, 7, 5, 3, 1, 8, 6, 4, 2, 0]:
            released.extend(reorderer.push((key, None)))
            assert len(reorderer) <= capacity
        assert reorderer.buffered_high_water == capacity
        released.extend(reorderer.drain())
        # The released sequence is unchanged by the fix: each release is the
        # minimum of the buffered tuples plus the incoming one.
        assert sorted(row[0] for row in released) == list(range(10))
        assert [row[0] for row in released[:6]] == [1, 3, 5, 4, 2, 0]

    def test_equal_keys_do_not_compare_payloads(self):
        reorderer = PriorityQueueReorderer(SCHEMA, "k", capacity=10)
        # Payloads are dicts, which are not comparable: the sequence number
        # tie-break must prevent TypeError.
        reorderer.push((1, {"a": 1}))
        reorderer.push((1, {"b": 2}))
        assert len(reorderer.drain()) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorityQueueReorderer(SCHEMA, "k", capacity=0)

