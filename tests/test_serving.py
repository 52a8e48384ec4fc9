"""Unit tests for the multi-query serving layer."""

from __future__ import annotations

from collections import Counter

import pytest

from helpers import feed, latency_percentile
from repro.core.corrective import CorrectiveQueryProcessor
from repro.experiments.common import DEFAULT_BATCH_SIZE, build_dataset
from repro.integration.system import AdaptiveIntegrationSystem
from repro.optimizer.statistics import ObservedStatistics
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.expressions import JoinPredicate
from repro.serving import (
    POLICIES,
    QueryServer,
    RoundRobinPolicy,
    SharedStatisticsCache,
    ShortestRemainingCostPolicy,
    make_policy,
)
from repro.sources.network import BurstyNetworkModel
from repro.sources.remote import RemoteSource
from repro.stats.histogram import DynamicCompressedHistogram
from repro.workloads.queries import query_3a, query_5, query_10a


def _people_orders_query() -> SPJAQuery:
    return SPJAQuery(
        name="people_orders",
        relations=("people", "simple_orders"),
        join_predicates=(
            JoinPredicate("people", "pid", "simple_orders", "o_pid"),
        ),
    )


class TestSharedStatisticsCache:
    def test_seed_for_filters_by_query_relations(self):
        cache = SharedStatisticsCache()
        cache.selectivities[frozenset(("a", "b"))] = 0.25
        cache.selectivities[frozenset(("a", "z"))] = 0.5
        cache.multiplicative_factors[frozenset((("a", "x"), ("b", "y")))] = 3.0
        cache.multiplicative_factors[frozenset((("z", "x"), ("b", "y")))] = 9.0
        query = SPJAQuery(
            name="q",
            relations=("a", "b", "c"),
            join_predicates=(
                JoinPredicate("a", "x", "b", "y"),
                JoinPredicate("b", "y", "c", "w"),
            ),
        )
        seed = cache.seed_for(query)
        assert seed.selectivity_of(("a", "b")) == 0.25
        assert seed.selectivity_of(("a", "z")) is None
        assert len(seed.multiplicative_factors) == 1
        assert cache.queries_seeded == 1

    def test_seed_for_returns_none_when_nothing_applies(self):
        cache = SharedStatisticsCache()
        cache.selectivities[frozenset(("x", "y"))] = 0.1
        query = SPJAQuery(name="q", relations=("a",), join_predicates=())
        assert cache.seed_for(query) is None
        assert cache.queries_seeded == 0

    def test_absorb_learns_exhausted_cardinalities_only(self):
        cache = SharedStatisticsCache()
        observed = ObservedStatistics()
        observed.record_source("done", 120, 100, exhausted=True)
        observed.record_source("partial", 50, 50, exhausted=False)
        observed.record_selectivity(("done", "partial"), 0.4)
        cache.absorb(observed)
        assert cache.cardinalities == {"done": 120}
        assert cache.selectivities[frozenset(("done", "partial"))] == 0.4

    def test_absorb_keeps_max_multiplicative_factor(self):
        cache = SharedStatisticsCache()
        predicate = JoinPredicate("a", "x", "b", "y")
        first, second = ObservedStatistics(), ObservedStatistics()
        first.flag_multiplicative(predicate, 4.0)
        second.flag_multiplicative(predicate, 2.0)
        cache.absorb(first)
        cache.absorb(second)
        (factor,) = cache.multiplicative_factors.values()
        assert factor == 4.0

    def test_apply_cardinalities_publishes_into_catalog(self, people, simple_orders):
        catalog = Catalog()
        catalog.register(people.name, people.schema, relation=people)
        catalog.register(simple_orders.name, simple_orders.schema, relation=simple_orders)
        cache = SharedStatisticsCache()
        cache.cardinalities["people"] = 5
        cache.cardinalities["unknown_relation"] = 7
        assert cache.apply_cardinalities(catalog) == 1
        assert catalog.statistics("people").cardinality == 5
        # Second application is a no-op.
        assert cache.apply_cardinalities(catalog) == 0

    def test_histogram_store(self):
        cache = SharedStatisticsCache()
        histogram = DynamicCompressedHistogram(bucket_target=10)
        feed(histogram, range(50))
        cache.record_histogram("lineitem", "l_orderkey", histogram)
        assert cache.histogram("lineitem", "l_orderkey") is histogram
        assert cache.histogram("lineitem", "l_suppkey") is None
        assert cache.summary()["histograms"] == 1


class _StubSession:
    def __init__(self, index, last_granted_turn, remaining):
        self.index = index
        self.last_granted_turn = last_granted_turn
        self._remaining = remaining

    def remaining_cost_estimate(self):
        return self._remaining


class TestSchedulingPolicies:
    def test_make_policy_resolves_names_and_instances(self):
        assert isinstance(make_policy("round_robin"), RoundRobinPolicy)
        policy = ShortestRemainingCostPolicy()
        assert make_policy(policy) is policy
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("fifo")
        assert set(POLICIES) == {"round_robin", "shortest_remaining_cost"}

    def test_round_robin_picks_least_recently_served(self):
        sessions = [
            _StubSession(0, last_granted_turn=5, remaining=1.0),
            _StubSession(1, last_granted_turn=2, remaining=9.0),
            _StubSession(2, last_granted_turn=-1, remaining=9.0),
        ]
        assert RoundRobinPolicy().pick(sessions, now=0.0).index == 2

    def test_shortest_remaining_cost_picks_smallest_estimate(self):
        sessions = [
            _StubSession(0, last_granted_turn=-1, remaining=100.0),
            _StubSession(1, last_granted_turn=-1, remaining=10.0),
            _StubSession(2, last_granted_turn=-1, remaining=10.0),
        ]
        # Smallest estimate wins; admission order breaks the tie.
        assert ShortestRemainingCostPolicy().pick(sessions, now=0.0).index == 1

    def test_shortest_remaining_cost_does_not_lose_on_median_latency(self):
        """The point of an SRPT-style discipline, on eight concurrent instances
        of the paper's queries (Q3A, Q10A, Q5 cycled).  Simulated latencies are
        a pure function of scale and seed: a stable pin, not a timing check."""
        dataset = build_dataset("uniform", 0.002, 0.0, 2004)
        makers = (query_3a, query_10a, query_5)
        p50 = {}
        for policy in ("round_robin", "shortest_remaining_cost"):
            server = QueryServer(
                dataset.catalog_no_statistics,
                dataset.sources,
                policy=policy,
                batch_size=DEFAULT_BATCH_SIZE,
                quantum_tuples=200,
                polling_interval_seconds=0.25,
            )
            for index in range(8):
                server.submit(makers[index % len(makers)]())
            report = server.run()
            assert len(report.served) == 8
            p50[policy] = latency_percentile(report, 0.5)
        assert p50["shortest_remaining_cost"] <= p50["round_robin"]


class TestQueryServer:
    def _server(self, people, simple_orders, **kwargs):
        catalog = Catalog()
        catalog.register(people.name, people.schema, relation=people)
        catalog.register(simple_orders.name, simple_orders.schema, relation=simple_orders)
        sources = {"people": people, "simple_orders": simple_orders}
        kwargs.setdefault("polling_interval_seconds", 0.0001)
        kwargs.setdefault("quantum_tuples", 3)
        return QueryServer(catalog, sources, **kwargs)

    def test_submit_validates_sources_and_admission(self, people, simple_orders):
        server = self._server(people, simple_orders)
        with pytest.raises(KeyError, match="unregistered"):
            server.submit(
                SPJAQuery(name="bad", relations=("ghost",), join_predicates=())
            )
        with pytest.raises(ValueError, match="non-negative"):
            server.submit(_people_orders_query(), admit_at=-1.0)
        with pytest.raises(ValueError, match="quantum_tuples"):
            self._server(people, simple_orders, quantum_tuples=0)

    def test_duplicate_labels_are_uniquified(self, people, simple_orders):
        server = self._server(people, simple_orders)
        first = server.submit(_people_orders_query(), label="same")
        second = server.submit(_people_orders_query(), label="same")
        assert first == "same"
        assert second != "same"

    def test_server_is_single_use(self, people, simple_orders):
        server = self._server(people, simple_orders)
        server.submit(_people_orders_query())
        server.run()
        with pytest.raises(RuntimeError, match="already run"):
            server.run()
        with pytest.raises(RuntimeError, match="already run"):
            server.submit(_people_orders_query())

    def test_concurrent_sessions_interleave_and_match_solo(
        self, people, simple_orders
    ):
        server = self._server(people, simple_orders)
        for index in range(3):
            server.submit(_people_orders_query(), label=f"q{index}")
        report = server.run()
        assert len(report.served) == 3
        # With a tiny quantum every session needs several grants, and the
        # round-robin policy interleaves them rather than running serially.
        assert all(query.quanta >= 3 for query in report.served)
        grants_span = report.total_quanta
        assert grants_span >= sum(query.quanta for query in report.served)

        catalog = Catalog()
        catalog.register(people.name, people.schema, relation=people)
        catalog.register(simple_orders.name, simple_orders.schema, relation=simple_orders)
        solo = CorrectiveQueryProcessor(
            catalog,
            {"people": people, "simple_orders": simple_orders},
            polling_interval_seconds=0.0001,
        ).execute(_people_orders_query(), poll_step_limit=3)
        for served in report.served:
            assert Counter(served.rows) == Counter(solo.rows)

    def test_staggered_admission_controls_start_times(self, people, simple_orders):
        server = self._server(people, simple_orders)
        server.submit(_people_orders_query(), admit_at=0.0, label="early")
        server.submit(_people_orders_query(), admit_at=5.0, label="late")
        report = server.run()
        by_label = {query.label: query for query in report.served}
        late = by_label["late"]
        early = by_label["early"]
        # The early query finishes long before the late one is admitted; the
        # server's clock then jumps to the late admission time.
        assert early.finished_at < 5.0
        assert late.started_at == pytest.approx(5.0)
        assert late.latency == pytest.approx(late.finished_at - 5.0)
        assert report.makespan >= late.finished_at - report.served[0].admitted_at - 0.0

    def test_report_shape(self, people, simple_orders):
        server = self._server(people, simple_orders)
        server.submit(_people_orders_query())
        server.submit(_people_orders_query())
        report = server.run()
        assert report.policy == "round_robin"
        assert len(report) == 2
        assert all(0 < query.latency <= report.makespan for query in report.served)

    def test_learned_statistics_flow_between_sessions(self, people, simple_orders):
        cache = SharedStatisticsCache()
        server = self._server(people, simple_orders, stats_cache=cache)
        server.submit(_people_orders_query(), admit_at=0.0)
        server.submit(_people_orders_query(), admit_at=1.0)
        server.run()
        # The first query exhausts both sources; their exact cardinalities
        # are learned and published into the server catalog before the
        # second query is activated.
        assert cache.cardinalities["people"] == len(people)
        assert cache.cardinalities["simple_orders"] == len(simple_orders)
        assert server.catalog.statistics("people").cardinality == len(people)
        assert cache.queries_absorbed == 2

    def test_share_statistics_can_be_disabled(self, people, simple_orders):
        cache = SharedStatisticsCache()
        server = self._server(
            people, simple_orders, stats_cache=cache, share_statistics=False
        )
        server.submit(_people_orders_query(), admit_at=0.0)
        server.submit(_people_orders_query(), admit_at=1.0)
        server.run()
        assert cache.queries_seeded == 0
        assert server.catalog.statistics("people").cardinality is None


class TestRemoteSourceSharing:
    def _remote(self, relation, seed):
        return RemoteSource(
            relation,
            BurstyNetworkModel(
                burst_rate=50_000.0,
                mean_burst_tuples=4,
                mean_gap_seconds=0.01,
                latency=0.002,
                seed=seed,
            ),
        )

    def test_sessions_share_one_arrival_schedule(self, people, simple_orders):
        people_src = self._remote(people, 3)
        orders_src = self._remote(simple_orders, 4)
        schedules = []
        arrival_times = people_src.network.arrival_times
        people_src.network.arrival_times = (
            lambda count: schedules.append(count) or arrival_times(count)
        )
        catalog = Catalog()
        catalog.register(people.name, people.schema, relation=people)
        catalog.register(simple_orders.name, simple_orders.schema, relation=simple_orders)
        server = QueryServer(
            catalog,
            {"people": people_src, "simple_orders": orders_src},
            polling_interval_seconds=0.001,
            quantum_tuples=2,
        )
        server.submit(_people_orders_query(), label="a")
        server.submit(_people_orders_query(), label="b")
        report = server.run()
        # Priming materialized one schedule; both sessions opened streams
        # over the same source objects.
        assert schedules == [len(people)]
        assert people_src.open_count >= 2
        assert report.source_opens["people"] == people_src.open_count
        # Arrival waits actually showed up on the shared clock.
        assert report.clock_wait_seconds >= 0.0

        solo = CorrectiveQueryProcessor(
            catalog.copy(),
            {"people": self._remote(people, 3), "simple_orders": self._remote(simple_orders, 4)},
            polling_interval_seconds=0.001,
        ).execute(_people_orders_query(), poll_step_limit=2)
        for served in report.served:
            assert Counter(served.rows) == Counter(solo.rows)


class TestSystemServeFacade:
    def _system(self, tiny_tpch):
        system = AdaptiveIntegrationSystem()
        for relation in tiny_tpch.relations.values():
            system.register_source(relation)
        return system

    def test_serve_matches_solo_execute(self, tiny_tpch):
        system = self._system(tiny_tpch)
        queries = [query_3a(), query_10a(), query_5()]
        report = system.serve(queries, policy="shortest_remaining_cost")
        assert len(report.served) == 3
        for query, served in zip(queries, report.served):
            solo = self._system(tiny_tpch).execute(query, strategy="corrective")
            assert Counter(served.rows) == Counter(solo.rows), query.name

    def test_serve_validates_inputs(self, tiny_tpch):
        system = self._system(tiny_tpch)
        with pytest.raises(ValueError, match="at least one"):
            system.serve([])
        with pytest.raises(ValueError, match="admission_times"):
            system.serve([query_3a()], admission_times=[0.0, 1.0])
        with pytest.raises(KeyError, match="unregistered"):
            AdaptiveIntegrationSystem().serve([query_3a()])

    def test_stats_cache_carries_across_serve_calls(self, tiny_tpch):
        system = self._system(tiny_tpch)
        cache = SharedStatisticsCache()
        system.serve([query_3a()], stats_cache=cache)
        absorbed_once = cache.queries_absorbed
        system.serve([query_3a()], stats_cache=cache)
        assert cache.queries_absorbed > absorbed_once
        assert cache.queries_seeded >= 1
        assert cache.cardinalities  # exhausted sources were learned
