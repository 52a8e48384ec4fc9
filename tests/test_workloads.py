"""Tests for the TPC-H-style generator, perturbations and the query workload."""

import pytest

from helpers import displaced_fraction, is_sorted_on
from repro.workloads.generator import TPCHData, TPCHGenerator
from repro.workloads.perturb import reorder_fraction
from repro.workloads.queries import (
    flights_example_query,
    paper_query_workload,
    query_3a,
    query_5,
    query_10,
    query_10a,
)
from repro.workloads.tpch_schema import PRIMARY_KEYS, TPCH_SCHEMAS


class TestGenerator:
    def test_deterministic_for_seed(self):
        a = TPCHGenerator(scale_factor=0.0004, seed=3).generate()
        b = TPCHGenerator(scale_factor=0.0004, seed=3).generate()
        for name in a.relations:
            assert a[name].rows == b[name].rows

    def test_different_seed_differs(self):
        a = TPCHGenerator(scale_factor=0.0004, seed=3).generate()
        b = TPCHGenerator(scale_factor=0.0004, seed=4).generate()
        assert a.orders.rows != b.orders.rows

    def test_relative_sizes_follow_tpch(self, tiny_tpch):
        assert len(tiny_tpch.region) == 5
        assert len(tiny_tpch.nation) == 25
        assert len(tiny_tpch.orders) == 10 * len(tiny_tpch.customer)
        ratio = len(tiny_tpch.lineitem) / len(tiny_tpch.orders)
        assert 2.5 <= ratio <= 5.5
        assert tiny_tpch.total_tuples() == sum(len(r) for r in tiny_tpch.relations.values())

    def test_schemas_match_registry(self, tiny_tpch):
        for name, relation in tiny_tpch.relations.items():
            assert relation.schema.names == TPCH_SCHEMAS[name].names

    def test_orders_and_lineitem_sorted_on_keys(self, tiny_tpch):
        assert is_sorted_on(tiny_tpch.orders, "o_orderkey")
        assert is_sorted_on(tiny_tpch.lineitem, "l_orderkey")

    def test_foreign_keys_reference_existing_rows(self, tiny_tpch):
        customers = set(tiny_tpch.customer.column("c_custkey"))
        assert set(tiny_tpch.orders.column("o_custkey")) <= customers
        orders = set(tiny_tpch.orders.column("o_orderkey"))
        assert set(tiny_tpch.lineitem.column("l_orderkey")) <= orders
        suppliers = set(tiny_tpch.supplier.column("s_suppkey"))
        assert set(tiny_tpch.lineitem.column("l_suppkey")) <= suppliers

    def test_revenue_consistent_with_price_and_discount(self, tiny_tpch):
        schema = tiny_tpch.lineitem.schema
        price = schema.position("l_extendedprice")
        discount = schema.position("l_discount")
        revenue = schema.position("l_revenue")
        for row in tiny_tpch.lineitem.rows[:200]:
            assert row[revenue] == pytest.approx(row[price] * (1 - row[discount]), abs=0.02)

    def test_skew_concentrates_customer_orders(self, tiny_tpch, tiny_tpch_skewed):
        def top_share(data: TPCHData) -> float:
            counts = {}
            for key in data.orders.column("o_custkey"):
                counts[key] = counts.get(key, 0) + 1
            return max(counts.values()) / len(data.orders)

        assert top_share(tiny_tpch_skewed) > 2 * top_share(tiny_tpch)

    def test_catalog_modes(self, tiny_tpch):
        without = tiny_tpch.catalog(with_cardinalities=False)
        with_stats = tiny_tpch.catalog(with_cardinalities=True)
        assert without.statistics("orders").cardinality is None
        assert with_stats.statistics("orders").cardinality == len(tiny_tpch.orders)
        assert with_stats.statistics("orders").distinct("o_custkey") > 0
        assert with_stats.statistics("customer").is_key("c_custkey")
        assert not with_stats.statistics("lineitem").key_attributes
        assert "l_orderkey" in with_stats.statistics("lineitem").sorted_on

    def test_as_sources(self, tiny_tpch):
        sources = tiny_tpch.as_sources()
        assert set(sources) == set(TPCH_SCHEMAS)

    def test_validation(self):
        with pytest.raises(ValueError):
            TPCHGenerator(scale_factor=0)
        with pytest.raises(ValueError):
            TPCHGenerator(zipf_z=-0.5)


class TestPerturbations:
    def test_reorder_zero_is_identity(self, tiny_tpch):
        perturbed = reorder_fraction(tiny_tpch.orders, 0.0, seed=1)
        assert perturbed.rows == tiny_tpch.orders.rows

    def test_reorder_fraction_displaces_roughly_that_many(self, tiny_tpch):
        perturbed = reorder_fraction(tiny_tpch.lineitem, 0.1, seed=1)
        displaced = displaced_fraction(tiny_tpch.lineitem, perturbed)
        assert 0.04 <= displaced <= 0.12
        assert sorted(perturbed.rows) == sorted(tiny_tpch.lineitem.rows)

    def test_reorder_breaks_sortedness(self, tiny_tpch):
        perturbed = reorder_fraction(tiny_tpch.lineitem, 0.1, seed=1)
        assert not is_sorted_on(perturbed, "l_orderkey")

    def test_reorder_validation(self, tiny_tpch):
        with pytest.raises(ValueError):
            reorder_fraction(tiny_tpch.orders, 1.5)


class TestQueries:
    def test_workload_contents(self):
        workload = paper_query_workload()
        assert set(workload) == {"Q3A", "Q10", "Q10A", "Q5"}

    def test_query_relation_counts(self):
        assert len(query_3a().relations) == 3
        assert len(query_10().relations) == 4
        assert len(query_10a().relations) == 4
        assert len(query_5().relations) == 6

    def test_variants_drop_date_predicates(self):
        assert "orders" not in query_3a().selections
        assert "orders" in query_10().selections
        assert "orders" not in query_10a().selections

    def test_queries_reference_valid_attributes(self):
        for query in paper_query_workload().values():
            for relation, predicate in query.selections.items():
                schema = TPCH_SCHEMAS[relation]
                for attr in predicate.attributes():
                    assert attr in schema, (query.name, relation, attr)
            for pred in query.join_predicates:
                assert pred.left_attr in TPCH_SCHEMAS[pred.left_relation]
                assert pred.right_attr in TPCH_SCHEMAS[pred.right_relation]
            agg = query.aggregation
            available = {
                name
                for relation in query.relations
                for name in TPCH_SCHEMAS[relation].names
            }
            assert set(agg.group_attributes) <= available
            for term in agg.aggregates:
                if term.attribute:
                    assert term.attribute in available

    def test_queries_return_answers_on_generated_data(self, tiny_tpch, small_tpch):
        from helpers import reference_spja

        sources = tiny_tpch.as_sources()
        for name in ("Q3A", "Q10", "Q10A"):
            query = paper_query_workload()[name]
            rows = reference_spja(query, sources)
            assert rows, f"{name} returned no rows on the generated data"
        # Q5's nation-correlation predicate is very selective; it needs the
        # slightly larger instance to produce answers.
        from repro.baselines.static_executor import StaticExecutor

        report = StaticExecutor(
            small_tpch.catalog(with_cardinalities=True), small_tpch.as_sources()
        ).execute(query_5())
        assert report.rows

    def test_flights_example_query(self):
        query = flights_example_query()
        assert query.relations == ("flights", "travelers", "children")
        assert query.aggregation.aggregates[0].function == "max"

    def test_primary_keys_cover_all_relations(self):
        assert set(PRIMARY_KEYS) == set(TPCH_SCHEMAS)
