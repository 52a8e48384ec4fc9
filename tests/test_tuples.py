"""Tests for tuple adapters (state-structure compatibility machinery)."""

from repro.relational.schema import Schema
from repro.relational.tuples import TupleAdapter


class TestTupleAdapter:
    def test_identity_when_layouts_match(self):
        schema = Schema.from_names(["a", "b"])
        adapter = TupleAdapter(schema, schema)
        assert adapter.is_identity
        assert adapter.adapt((1, 2)) == (1, 2)

    def test_permutation(self):
        source = Schema.from_names(["a", "b", "c"])
        target = Schema.from_names(["c", "a", "b"])
        adapter = TupleAdapter(source, target)
        assert not adapter.is_identity
        assert adapter.adapt((1, 2, 3)) == (3, 1, 2)

    def test_projection_drops_attributes(self):
        source = Schema.from_names(["a", "b", "c"])
        target = Schema.from_names(["b"])
        adapter = TupleAdapter(source, target)
        assert adapter.adapt((1, 2, 3)) == (2,)

    def test_missing_attributes_filled(self):
        source = Schema.from_names(["a"])
        target = Schema.from_names(["a", "added"])
        adapter = TupleAdapter(source, target, fill_value=0)
        assert adapter.has_missing
        assert adapter.adapt((7,)) == (7, 0)

    def test_adapt_many(self):
        source = Schema.from_names(["a", "b"])
        target = Schema.from_names(["b", "a"])
        adapter = TupleAdapter(source, target)
        assert adapter.adapt_many([(1, 2), (3, 4)]) == [(2, 1), (4, 3)]

    def test_adapt_many_identity_returns_copy(self):
        schema = Schema.from_names(["a"])
        adapter = TupleAdapter(schema, schema)
        rows = [(1,), (2,)]
        result = adapter.adapt_many(rows)
        assert result == rows
        assert result is not rows
