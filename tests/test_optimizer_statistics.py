"""Tests for runtime statistics and the selectivity estimator."""

import pytest

from repro.optimizer.statistics import (
    ObservedStatistics,
    SelectivityEstimator,
    predicate_key,
    selectivity_key,
)
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, DEFAULT_ASSUMED_CARDINALITY, TableStatistics
from repro.relational.expressions import (
    AttributeRef,
    Comparison,
    Constant,
    JoinPredicate,
)
from repro.relational.schema import Schema


def make_catalog(with_stats=True):
    catalog = Catalog()
    catalog.register(
        "r",
        Schema.from_names(["rk", "rv"], relation="r"),
        TableStatistics(cardinality=1000, key_attributes=("rk",), distinct_counts={"rk": 1000, "rv": 10})
        if with_stats
        else None,
    )
    catalog.register(
        "s",
        Schema.from_names(["sk", "s_rk"], relation="s"),
        TableStatistics(cardinality=10_000, key_attributes=("sk",), distinct_counts={"s_rk": 1000})
        if with_stats
        else None,
    )
    return catalog


def make_query(selection=None):
    return SPJAQuery(
        name="rs",
        relations=("r", "s"),
        join_predicates=(JoinPredicate("r", "rk", "s", "s_rk"),),
        selections=selection or {},
    )


class TestObservedStatistics:
    def test_record_and_lookup_selectivity(self):
        observed = ObservedStatistics()
        observed.record_selectivity(["r", "s"], 0.25)
        assert observed.selectivity_of(["s", "r"]) == 0.25
        assert observed.selectivity_of(["r"]) is None

    def test_record_source_keeps_maxima(self):
        observed = ObservedStatistics()
        observed.record_source("r", 10, 5, False)
        observed.record_source("r", 8, 4, True)
        source = observed.source("r")
        assert source.tuples_read == 10
        assert source.tuples_passed_selection == 5
        assert source.exhausted
        assert source.observed_selection_selectivity == pytest.approx(0.5)

    def test_multiplicative_flags_keep_largest_factor(self):
        observed = ObservedStatistics()
        predicate = JoinPredicate("r", "rk", "s", "s_rk")
        observed.flag_multiplicative(predicate, 2.0)
        observed.flag_multiplicative(predicate, 1.5)
        assert observed.multiplicative_factor(predicate) == 2.0

    def test_merge(self):
        a, b = ObservedStatistics(), ObservedStatistics()
        a.record_selectivity(["r"], 0.5)
        b.record_selectivity(["r"], 0.7)
        b.record_source("s", 3, 3, False)
        a.merge(b)
        assert a.selectivity_of(["r"]) == 0.7
        assert a.source("s").tuples_read == 3

    def test_keys(self):
        assert selectivity_key(["a", "b"]) == frozenset({"a", "b"})
        p = JoinPredicate("a", "x", "b", "y")
        q = JoinPredicate("b", "y", "a", "x")
        assert predicate_key(p) == predicate_key(q)


class TestSelectivityEstimator:
    def test_base_cardinality_prefers_exact_then_published_then_default(self):
        catalog = make_catalog()
        query = make_query()
        estimator = SelectivityEstimator(catalog, query)
        assert estimator.base_cardinality("r") == 1000

        no_stats = SelectivityEstimator(make_catalog(with_stats=False), query)
        assert no_stats.base_cardinality("r") == DEFAULT_ASSUMED_CARDINALITY

        observed = ObservedStatistics()
        observed.record_source("r", 1234, 1234, exhausted=True)
        exact = SelectivityEstimator(catalog, query, observed)
        assert exact.base_cardinality("r") == 1234

    def test_base_cardinality_never_below_observed(self):
        observed = ObservedStatistics()
        observed.record_source("r", 5000, 5000, exhausted=False)
        estimator = SelectivityEstimator(make_catalog(), make_query(), observed)
        assert estimator.base_cardinality("r") == 5000

    def test_selected_cardinality_uses_equality_distinct_counts(self):
        catalog = make_catalog()
        query = make_query({"r": Comparison(AttributeRef("rv"), "=", Constant(3))})
        estimator = SelectivityEstimator(catalog, query)
        # distinct(rv) = 10 -> selectivity 1/10
        assert estimator.selected_cardinality("r") == pytest.approx(100)

    def test_selected_cardinality_prefers_observed_selectivity(self):
        observed = ObservedStatistics()
        observed.record_source("r", 100, 50, False)
        query = make_query({"r": Comparison(AttributeRef("rv"), "=", Constant(3))})
        estimator = SelectivityEstimator(make_catalog(), query, observed)
        assert estimator.selected_cardinality("r") == pytest.approx(500)

    def test_join_estimate_averages_system_r_and_fk_speculation(self):
        estimator = SelectivityEstimator(make_catalog(), make_query())
        estimate = estimator.estimate_cardinality(frozenset({"r", "s"}))
        system_r = 1000 * 10_000 / 1000  # 1/max(distinct) on the join keys
        fk = 10_000
        assert estimate == pytest.approx((system_r + fk) / 2)

    def test_observed_selectivity_overrides_heuristics(self):
        observed = ObservedStatistics()
        observed.record_selectivity(["r", "s"], 1e-4)
        estimator = SelectivityEstimator(make_catalog(), make_query(), observed)
        assert estimator.estimate_cardinality(frozenset({"r", "s"})) == pytest.approx(
            1e-4 * 1000 * 10_000
        )

    def test_multiplicative_flag_scales_estimate(self):
        observed = ObservedStatistics()
        observed.flag_multiplicative(JoinPredicate("r", "rk", "s", "s_rk"), 3.0)
        baseline = SelectivityEstimator(make_catalog(), make_query()).estimate_cardinality(
            frozenset({"r", "s"})
        )
        flagged = SelectivityEstimator(make_catalog(), make_query(), observed).estimate_cardinality(
            frozenset({"r", "s"})
        )
        assert flagged == pytest.approx(3.0 * baseline)

    def test_selectivity_definition(self):
        estimator = SelectivityEstimator(make_catalog(), make_query())
        relations = frozenset({"r", "s"})
        expected = estimator.estimate_cardinality(relations) / (1000 * 10_000)
        assert estimator.selectivity(relations) == pytest.approx(expected)

    def test_estimates_are_cached_per_estimator(self):
        estimator = SelectivityEstimator(make_catalog(), make_query())
        first = estimator.estimate_cardinality(frozenset({"r", "s"}))
        estimator.observed.record_selectivity(["r", "s"], 1.0)
        # cached value still returned; a new estimator sees the observation
        assert estimator.estimate_cardinality(frozenset({"r", "s"})) == first
        fresh = SelectivityEstimator(make_catalog(), make_query(), estimator.observed)
        assert fresh.estimate_cardinality(frozenset({"r", "s"})) != first
