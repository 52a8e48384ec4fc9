"""Tests for the state-structure registry."""

from repro.engine.state.hash_table import HashTableState
from repro.engine.state.registry import StateRegistry, expression_signature
from repro.relational.schema import Schema

SCHEMA = Schema.from_names(["k", "v"])


def table_with(n, key="k"):
    table = HashTableState(SCHEMA, key)
    table.insert_batch([(i, i) for i in range(n)])
    return table


class TestSignatures:
    def test_expression_signature_is_order_insensitive(self):
        a = expression_signature([("r", 0), ("s", 1)])
        b = expression_signature([("s", 1), ("r", 0)])
        assert a == b


class TestRegistry:
    def test_register_and_lookup(self):
        registry = StateRegistry()
        sig = expression_signature([("r", 0)])
        registry.register(sig, table_with(3), plan_id=0)
        assert sig in registry
        assert registry.lookup(sig).cardinality == 3
        assert len(registry) == 1

    def test_lookup_missing_raises(self):
        registry = StateRegistry()
        try:
            registry.lookup(expression_signature([("r", 0)]))
        except KeyError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected KeyError")

    def test_reregistration_keeps_larger_structure(self):
        registry = StateRegistry()
        sig = expression_signature([("r", 0)])
        registry.register(sig, table_with(5), plan_id=0)
        registry.register(sig, table_with(2), plan_id=1)  # smaller: ignored
        assert registry.lookup(sig).cardinality == 5
        registry.register(sig, table_with(9), plan_id=1)
        assert registry.lookup(sig).cardinality == 9

    def test_base_partitions(self):
        registry = StateRegistry()
        registry.register(expression_signature([("r", 0)]), table_with(1), 0)
        registry.register(expression_signature([("r", 1)]), table_with(2), 1)
        registry.register(expression_signature([("r", 0), ("s", 0)]), table_with(3), 0)
        partitions = registry.base_partitions("r")
        assert set(partitions) == {0, 1}
        assert partitions[1].cardinality == 2

    def test_intermediate_entries(self):
        registry = StateRegistry()
        registry.register(expression_signature([("r", 0)]), table_with(1), 0)
        registry.register(expression_signature([("r", 0), ("s", 0)]), table_with(3), 0)
        intermediates = registry.intermediate_entries()
        assert len(intermediates) == 1
        assert intermediates[0].relations == frozenset({"r", "s"})

    def test_entries_record_plan_and_cardinality(self):
        registry = StateRegistry()
        registry.register(expression_signature([("r", 0)]), table_with(1), 0)
        registry.register(expression_signature([("s", 1)]), table_with(4), 1)
        assert [entry.plan_id for entry in registry] == [0, 1]
        assert sum(entry.cardinality for entry in registry) == 5

    def test_entry_phases(self):
        registry = StateRegistry()
        entry = registry.register(
            expression_signature([("r", 2), ("s", 0)]), table_with(1), 2
        )
        assert entry.phases == frozenset({0, 2})

    def test_describe(self):
        registry = StateRegistry()
        registry.register(expression_signature([("r", 0)]), table_with(1), 0, "leaf")
        rows = registry.describe()
        assert rows[0]["description"] == "leaf"
        assert rows[0]["cardinality"] == 1
