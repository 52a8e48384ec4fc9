"""Tests for state structures, including property-based consistency checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.state.base import StateStructure
from repro.engine.state.hash_table import HashTableState
from repro.engine.state.sorted_run import SortedRunState
from repro.relational.schema import Schema

SCHEMA = Schema.from_names(["k", "v"])


def rows_from_keys(keys):
    return [(k, f"v{k}") for k in keys]


class TestBaseBehaviour:
    def test_base_class_is_abstract(self):
        base = StateStructure(SCHEMA)
        with pytest.raises(NotImplementedError):
            base.insert((1, "a"))
        with pytest.raises(NotImplementedError):
            base.scan()


class TestHashTableState:
    def test_probe(self):
        state = HashTableState(SCHEMA, "k")
        state.insert_batch(rows_from_keys([1, 2, 1]))
        assert len(state.probe(1)) == 2
        assert state.probe(3) == []
        assert 1 in state and 3 not in state

    def test_scan_covers_everything(self):
        state = HashTableState(SCHEMA, "k")
        state.insert_batch(rows_from_keys(range(20)))
        assert sorted(r[0] for r in state.scan()) == list(range(20))
        assert len(state.bucket_map()) == 20


# ---------------------------------------------------------------------------
# Property-based consistency: both structures the engine builds must agree
# with a naive dict-of-lists reference under arbitrary insertion sequences —
# the sorted run also under evictions interleaved with the inserts.
# ---------------------------------------------------------------------------

keys = st.integers(min_value=-50, max_value=50)
steps_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(keys, max_size=20)),
        st.tuples(st.sampled_from(["evict_below", "evict_above"]), keys),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(steps=steps_strategy)
def test_property_keyed_structures_agree_with_reference(steps):
    hash_table = HashTableState(SCHEMA, "k")
    sorted_run = SortedRunState(SCHEMA, "k")
    inserted: list[tuple] = []
    reference: dict[int, list[tuple]] = {}

    for op, arg in steps:
        if op == "insert":
            rows = [(k, len(inserted) + i) for i, k in enumerate(arg)]
            inserted.extend(rows)
            for row in rows:
                reference.setdefault(row[0], []).append(row)
            hash_table.insert_batch(rows)
            for row in rows:
                sorted_run.insert(row)
        else:
            active_before = sorted_run.active_size()
            moved = getattr(sorted_run, op)(arg)
            assert sorted_run.active_size() == active_before - moved
            # nothing on the evicted side of the bound stays active
            evicted = (lambda k: k < arg) if op == "evict_below" else (lambda k: k > arg)
            for key in filter(evicted, reference):
                assert sorted_run.probe_active(key) == []

        for structure in (hash_table, sorted_run):
            assert len(structure) == len(inserted)
            assert sorted(structure.scan()) == sorted(inserted)
            for key in set(reference) | {999}:
                assert sorted(structure.probe(key)) == sorted(reference.get(key, []))
        for key in set(reference) | {999}:
            assert sorted_run.probe(key) == (
                sorted_run.probe_active(key) + sorted_run.probe_archive(key)
            )
        assert sorted_run.active_size() <= sorted_run.peak_active
