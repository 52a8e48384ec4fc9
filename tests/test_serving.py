"""Unit tests for the serving layer: the statistics cache, the server's
front door and the facade's ``serve``."""

from __future__ import annotations

import pytest

from repro.core.corrective import CorrectiveQueryProcessor
from repro.core.options import ProcessorOptions
from repro.integration.system import AdaptiveIntegrationSystem
from repro.optimizer.statistics import ObservedStatistics
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.expressions import JoinPredicate
from repro.serving import ShardedQueryServer, SharedStatisticsCache
from repro.serving.server import QueryServer, corrective_processor_options
from repro.sources.network import BurstyNetworkModel
from repro.sources.remote import RemoteSource
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


def _observables(report) -> tuple:
    """What a served session must share with its solo run, bit for bit."""
    return (
        report.rows,
        report.metrics.as_dict(),
        repr(report.simulated_seconds),
        report.num_phases,
    )


def _people_orders_catalog(people, simple_orders) -> Catalog:
    catalog = Catalog()
    catalog.register(people.name, people.schema, relation=people)
    catalog.register(simple_orders.name, simple_orders.schema, relation=simple_orders)
    return catalog


class TestServer:
    def _server(self, people, simple_orders, **kwargs):
        sources = {"people": people, "simple_orders": simple_orders}
        kwargs.setdefault("polling_interval_seconds", 0.0001)
        kwargs.setdefault("quantum_tuples", 3)
        return ShardedQueryServer(
            _people_orders_catalog(people, simple_orders),
            sources,
            workers=1,
            start_method="inline",
            **kwargs,
        )

    def _solo(self, people, simple_orders):
        return CorrectiveQueryProcessor(
            _people_orders_catalog(people, simple_orders),
            {"people": people, "simple_orders": simple_orders},
            polling_interval_seconds=0.0001,
        ).execute(_people_orders_query(), poll_step_limit=3)

    def test_submit_validates_sources_and_settings(self, people, simple_orders):
        server = self._server(people, simple_orders)
        with pytest.raises(KeyError, match="unregistered"):
            server.submit(
                SPJAQuery(name="bad", relations=("ghost",), join_predicates=())
            )
        with pytest.raises(ValueError, match="quantum_tuples"):
            self._server(people, simple_orders, quantum_tuples=0)

    def test_sessions_match_solo(self, people, simple_orders):
        server = self._server(people, simple_orders)
        for index in range(3):
            server.submit(_people_orders_query(), label=f"q{index}")
        report = server.run()
        assert [served.label for served in report.served] == ["q0", "q1", "q2"]
        solo = _observables(self._solo(people, simple_orders))
        for served in report.served:
            assert _observables(served.report) == solo

    def test_report_shape(self, people, simple_orders):
        server = self._server(people, simple_orders)
        server.submit(_people_orders_query())
        server.submit(_people_orders_query())
        report = server.run()
        assert report.policy == "round_robin"
        assert report.workers == 1 and report.start_method == "inline"
        assert len(report) == 2
        assert all(0 < query.latency <= report.makespan for query in report.served)
        assert report.makespan == max(query.latency for query in report.served)

    def test_learned_statistics_flow_between_runs(self, people, simple_orders):
        cache = SharedStatisticsCache()
        first = self._server(people, simple_orders, stats_cache=cache)
        first.submit(_people_orders_query())
        first.submit(_people_orders_query())
        first.run()
        # Both sessions exhaust both sources; the cache learns their exact
        # cardinalities once the run is over.
        assert cache.cardinalities["people"] == len(people)
        assert cache.cardinalities["simple_orders"] == len(simple_orders)
        assert cache.queries_absorbed == 2
        second = self._server(people, simple_orders, stats_cache=cache)
        second.submit(_people_orders_query())
        report = second.run()
        assert report.served[0].report.details["seeded_statistics"]
        assert cache.queries_absorbed == 3

    def test_share_statistics_can_be_disabled(self, people, simple_orders):
        cache = SharedStatisticsCache()
        learner = self._server(people, simple_orders, stats_cache=cache)
        learner.submit(_people_orders_query())
        learner.run()
        summary = cache.summary()
        server = self._server(
            people, simple_orders, stats_cache=cache, share_statistics=False
        )
        server.submit(_people_orders_query())
        report = server.run()
        assert not report.served[0].report.details["seeded_statistics"]
        assert cache.summary() == summary
        assert server.catalog.statistics("people").cardinality is None


class TestBenchCompatNames:
    """The former names the benchmark's probes import stay usable."""

    def test_query_server_alias_serves_sessions_equal_to_solo(self, tiny_tpch):
        catalog = Catalog()
        for relation in tiny_tpch.relations.values():
            catalog.register(relation.name, relation.schema, relation=relation)
        sources = dict(tiny_tpch.relations)
        options = dict(batch_size=64, polling_interval_seconds=0.01)
        server = QueryServer(catalog, sources, quantum_tuples=50, **options)
        queries = [query_3a(), query_10a(), query_5()]
        for query in queries:
            server.submit(query)
        report = server.run()
        assert report.workers == 1 and report.start_method == "inline"
        assert [served.query_name for served in report.served] == [
            query.name for query in queries
        ]
        for query, served in zip(queries, report.served):
            solo = CorrectiveQueryProcessor(catalog.copy(), sources, **options)
            expected = _observables(solo.execute(query, poll_step_limit=50))
            assert _observables(served.report) == expected, query.name

    def test_corrective_processor_options_is_the_options_record(self):
        assert corrective_processor_options is ProcessorOptions


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
        catalog = _people_orders_catalog(people, simple_orders)
        server = ShardedQueryServer(
            catalog,
            {"people": people_src, "simple_orders": orders_src},
            workers=1,
            start_method="inline",
            polling_interval_seconds=0.001,
            quantum_tuples=2,
        )
        server.submit(_people_orders_query(), label="a")
        server.submit(_people_orders_query(), label="b")
        report = server.run()
        # One schedule, computed on the first open; both sessions opened
        # streams over the same source objects.
        assert schedules == [len(people)]
        assert people_src.open_count == 2

        solo = CorrectiveQueryProcessor(
            catalog.copy(),
            {"people": self._remote(people, 3), "simple_orders": self._remote(simple_orders, 4)},
            polling_interval_seconds=0.001,
        ).execute(_people_orders_query(), poll_step_limit=2)
        for served in report.served:
            assert _observables(served.report) == _observables(solo)


class TestSystemServeFacade:
    def _system(self, tiny_tpch):
        system = AdaptiveIntegrationSystem()
        for relation in tiny_tpch.relations.values():
            system.register_source(relation)
        return system

    def test_serve_matches_solo_execute(self, tiny_tpch):
        system = self._system(tiny_tpch)
        queries = [query_3a(), query_10a(), query_5()]
        report = system.serve(queries)
        assert len(report.served) == 3
        for query, served in zip(queries, report.served):
            solo = self._system(tiny_tpch).execute(query, strategy="corrective")
            assert _observables(served.report) == _observables(solo.report), query.name

    def test_serve_validates_inputs(self, tiny_tpch):
        system = self._system(tiny_tpch)
        with pytest.raises(ValueError, match="at least one"):
            system.serve([])
        with pytest.raises(KeyError, match="unregistered"):
            AdaptiveIntegrationSystem().serve([query_3a()])
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            system.serve([query_3a()], policy="shortest_remaining_cost")
        assert system.serve([query_3a()], policy="round_robin").policy == "round_robin"

    def test_serve_rejects_the_deleted_admission_times(self, tiny_tpch):
        with pytest.raises(TypeError, match="admission_times"):
            self._system(tiny_tpch).serve([query_3a()], admission_times=[0.0])

    def test_stats_cache_carries_across_serve_calls(self, tiny_tpch):
        system = self._system(tiny_tpch)
        cache = SharedStatisticsCache()
        first = system.serve([query_3a()], stats_cache=cache)
        absorbed_once = cache.queries_absorbed
        second = system.serve([query_3a()], stats_cache=cache)
        assert cache.queries_absorbed > absorbed_once
        assert not first.served[0].report.details["seeded_statistics"]
        assert second.served[0].report.details["seeded_statistics"]
        # the shard's seed count rides home with its snapshot
        assert cache.queries_seeded >= 1
        assert second.stats_cache_summary["queries_seeded"] == cache.queries_seeded
        assert cache.cardinalities  # exhausted sources were learned
