"""Tests for the catalog and table statistics."""

import pytest

from repro.relational.catalog import (
    Catalog,
    CatalogError,
    TableStatistics,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema


SCHEMA = Schema.from_names(["k", "v"], relation="t")


def make_relation(n=5):
    return Relation("t", SCHEMA, [(i, i * 10) for i in range(n)])


class TestTableStatistics:
    def test_defaults_unknown(self):
        stats = TableStatistics()
        assert stats.cardinality is None
        assert stats.distinct("k") is None
        assert stats.sorted_on == ()
        assert not stats.is_key("k")

    def test_with_cardinality(self):
        stats = TableStatistics().with_cardinality(10)
        assert stats.cardinality == 10

    def test_key_and_sort_flags(self):
        stats = TableStatistics(sorted_on=("k",), key_attributes=("k",))
        assert stats.sorted_on == ("k",) and stats.is_key("k")


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        catalog.register("t", SCHEMA)
        assert "t" in catalog
        assert catalog.schema("t").names == ("k", "v")

    def test_missing_relation_raises(self):
        with pytest.raises(CatalogError):
            Catalog().entry("missing")

    def test_relation_without_data_raises(self):
        catalog = Catalog()
        catalog.register("t", SCHEMA)
        with pytest.raises(CatalogError):
            catalog.relation("t")

    def test_register_attaches_data(self):
        catalog = Catalog()
        catalog.register("t", SCHEMA, relation=make_relation())
        assert catalog.relation("t").cardinality == 5

    def test_with_cardinalities_copy(self):
        catalog = Catalog()
        catalog.register("t", SCHEMA, relation=make_relation(8))
        enriched = catalog.with_cardinalities()
        assert enriched.statistics("t").cardinality == 8
        # original untouched
        assert catalog.statistics("t").cardinality is None

    def test_set_statistics(self):
        catalog = Catalog()
        catalog.register("t", SCHEMA)
        catalog.set_statistics("t", TableStatistics(cardinality=3))
        assert catalog.statistics("t").cardinality == 3
