"""Tests for repro.relational.schema."""

import pytest

from repro.relational.schema import Attribute, Schema, SchemaError


class TestAttribute:
    def test_qualified_name_with_relation(self):
        attr = Attribute("c_custkey", "int", "customer")
        assert attr.qualified_name == "customer.c_custkey"

    def test_qualified_name_without_relation(self):
        assert Attribute("revenue").qualified_name == "revenue"

    def test_without_relation(self):
        attr = Attribute("a", "int", "r").without_relation()
        assert attr.relation is None
        assert attr.name == "a"


class TestSchemaConstruction:
    def test_from_names(self):
        schema = Schema.from_names(["a", "b", "c"], relation="r")
        assert schema.names == ("a", "b", "c")
        assert len(schema) == 3

    def test_from_names_with_types(self):
        schema = Schema.from_names(["a", "b"], types=["int", "str"])
        assert schema.attribute("b").type_name == "str"

    def test_from_names_type_length_mismatch(self):
        with pytest.raises(SchemaError):
            Schema.from_names(["a", "b"], types=["int"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema((Attribute("a"), Attribute("a")))


class TestSchemaLookups:
    def test_position(self):
        schema = Schema.from_names(["x", "y", "z"])
        assert schema.position("y") == 1

    def test_position_qualified(self):
        schema = Schema.from_names(["x", "y"], relation="r")
        assert schema.position("r.y") == 1

    def test_position_missing_raises(self):
        schema = Schema.from_names(["x"])
        with pytest.raises(SchemaError):
            schema.position("missing")

    def test_positions_multiple(self):
        schema = Schema.from_names(["a", "b", "c", "d"])
        assert schema.positions(["d", "a"]) == (3, 0)

    def test_contains(self):
        schema = Schema.from_names(["a", "b"])
        assert "a" in schema
        assert "zzz" not in schema

    def test_iteration_yields_attributes(self):
        schema = Schema.from_names(["a", "b"])
        assert [attr.name for attr in schema] == ["a", "b"]


class TestSchemaDerivation:
    def test_concat(self):
        left = Schema.from_names(["a", "b"])
        right = Schema.from_names(["c"])
        assert left.concat(right).names == ("a", "b", "c")

    def test_concat_duplicate_raises(self):
        left = Schema.from_names(["a"])
        right = Schema.from_names(["a"])
        with pytest.raises(SchemaError):
            left.concat(right)
