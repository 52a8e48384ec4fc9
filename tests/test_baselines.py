"""Tests for the static and plan-partitioning baselines."""

import pytest

from helpers import assert_same_aggregates, assert_same_bag, reference_spja
from repro.baselines.plan_partitioning import PlanPartitioningExecutor
from repro.baselines.static_executor import StaticExecutor
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery
from repro.relational.expressions import JoinPredicate
from repro.workloads.queries import paper_query_workload, query_3a, query_5, query_10a


class TestStaticExecutor:
    @pytest.mark.parametrize("with_cards", [False, True])
    def test_matches_reference_for_all_queries(self, tiny_tpch, with_cards):
        sources = tiny_tpch.as_sources()
        catalog = tiny_tpch.catalog(with_cardinalities=with_cards)
        executor = StaticExecutor(catalog, sources)
        for query in paper_query_workload().values():
            report = executor.execute(query)
            assert_same_aggregates(report.rows, reference_spja(query, sources))

    def test_explicit_tree_override(self, tiny_tpch):
        sources = tiny_tpch.as_sources()
        executor = StaticExecutor(tiny_tpch.catalog(), sources)
        tree = JoinTree.left_deep(["lineitem", "orders", "customer"])
        report = executor.execute(query_3a(), join_tree=tree)
        assert report.join_tree is tree
        assert_same_aggregates(report.rows, reference_spja(query_3a(), sources))

    def test_report_fields(self, tiny_tpch):
        sources = tiny_tpch.as_sources()
        report = StaticExecutor(tiny_tpch.catalog(), sources).execute(query_3a())
        assert report.simulated_seconds > 0
        assert report.work() > 0
        assert report.query_name == "Q3A"
        assert report.rows

    def test_spj_report_carries_schema(self, tiny_tpch):
        query = SPJAQuery(
            name="spj",
            relations=("customer", "orders"),
            join_predicates=(JoinPredicate("customer", "c_custkey", "orders", "o_custkey"),),
        )
        sources = tiny_tpch.as_sources()
        report = StaticExecutor(tiny_tpch.catalog(), sources).execute(query)
        assert report.schema is not None
        assert_same_bag(report.rows, reference_spja(query, sources))

    def test_better_statistics_never_hurt_much(self, small_tpch):
        """With cardinalities the chosen plan must not be noticeably worse."""
        sources = small_tpch.as_sources()
        for query in (query_3a(), query_10a()):
            no_stats = StaticExecutor(small_tpch.catalog(False), sources).execute(query)
            with_stats = StaticExecutor(small_tpch.catalog(True), sources).execute(query)
            assert with_stats.simulated_seconds <= no_stats.simulated_seconds * 1.05


class TestPlanPartitioning:
    def test_degenerates_to_static_for_small_queries(self, tiny_tpch):
        sources = tiny_tpch.as_sources()
        executor = PlanPartitioningExecutor(tiny_tpch.catalog(), sources)
        report = executor.execute(query_3a())
        assert not report.materialized
        assert report.details.get("degenerate")
        assert_same_aggregates(report.rows, reference_spja(query_3a(), sources))

    def test_materializes_for_query_5(self, tiny_tpch):
        sources = tiny_tpch.as_sources()
        executor = PlanPartitioningExecutor(tiny_tpch.catalog(), sources)
        report = executor.execute(query_5())
        assert report.materialized
        assert report.stage1_cardinality > 0
        assert report.stage2_tree is not None
        assert_same_aggregates(report.rows, reference_spja(query_5(), sources))

    def test_materializes_with_cardinalities_too(self, tiny_tpch):
        sources = tiny_tpch.as_sources()
        executor = PlanPartitioningExecutor(
            tiny_tpch.catalog(with_cardinalities=True), sources
        )
        report = executor.execute(query_5())
        assert_same_aggregates(report.rows, reference_spja(query_5(), sources))

    def test_custom_materialization_point(self, tiny_tpch):
        sources = tiny_tpch.as_sources()
        executor = PlanPartitioningExecutor(
            tiny_tpch.catalog(), sources, materialize_after_joins=2
        )
        report = executor.execute(query_10a())
        assert report.materialized
        assert_same_aggregates(report.rows, reference_spja(query_10a(), sources))

    def test_report_fields(self, tiny_tpch):
        sources = tiny_tpch.as_sources()
        report = PlanPartitioningExecutor(tiny_tpch.catalog(), sources).execute(query_5())
        assert report.materialized
        assert report.work() > 0
