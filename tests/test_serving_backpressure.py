"""Admission backpressure and rate-seeded plan choice under serving.

Three behavioral contracts on the resilience suite's serving side:

* **Deadlock guard** — a session deferred by admission backpressure must
  never hold the only runnable slot: the moment nothing else is active it
  is force-admitted, so an all-flaky pool still completes (satellite
  starvation coverage for the backpressure path).
* **p95 under a flaky pool** — deferring a collapsed-source session keeps
  serving quanta with the healthy sessions, improving the pool's p95
  admission-to-completion latency without changing a single answer.
* **Rate-seeded initial plans** — with ``rate_seeded_plans=True`` the
  optimizer consults the stats cache's rate outlook at plan time, so a
  repeat query over a known-slow source *starts* on a gating tree instead
  of discovering the collapse mid-flight.
"""

from __future__ import annotations

from collections import Counter

import pytest

from helpers import assert_same_bag, reference_spja

from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog, TableStatistics
from repro.relational.expressions import JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serving.server import QueryServer
from repro.sources.network import ConstantRateNetworkModel, PhasedRateNetworkModel
from repro.sources.remote import RemoteSource


def _relation(name: str, rows: int, width: int = 7, seed: int = 3) -> Relation:
    import random

    rng = random.Random(seed + rows)
    schema = Schema.from_names([f"{name}_k", f"{name}_v"], relation=name)
    return Relation(
        name, schema, [(i % width, rng.randrange(100)) for i in range(rows)]
    )


def _flaky_source(
    relation: Relation,
    promised_rate: float = 4000.0,
    burst_seconds: float = 0.001,
    trickle_seconds: float = 0.5,
    trickle_rate: float = 2.0,
) -> RemoteSource:
    """A source that bursts briefly, collapses, then recovers."""
    return RemoteSource(
        relation,
        PhasedRateNetworkModel(
            [(burst_seconds, promised_rate), (trickle_seconds, trickle_rate)],
            tail_rate=promised_rate,
            latency=0.0,
        ),
        promised_rate=promised_rate,
    )


def _healthy_source(relation: Relation, rate: float = 5000.0) -> RemoteSource:
    return RemoteSource(
        relation,
        ConstantRateNetworkModel(tuples_per_second=rate, latency=0.001),
        promised_rate=rate,
    )


def _scan(name: str) -> SPJAQuery:
    return SPJAQuery(f"q_{name}", (name,), ())


def _canonical(rows, schema_names, query: SPJAQuery, relations) -> Counter:
    """Multiset of ``rows`` permuted into reference column order.

    Join outputs lay columns out per the executed tree; permuting by the
    globally-unique attribute names makes multisets from different trees
    (and the brute-force oracle) directly comparable.
    """
    canonical: list[str] = []
    for name in query.relations:
        canonical.extend(relations[name].schema.names)
    positions = [tuple(schema_names).index(name) for name in canonical]
    return Counter(tuple(row[p] for p in positions) for row in rows)


class TestDeadlockGuard:
    def test_deferred_session_never_holds_the_only_runnable_slot(self):
        """An all-flaky pool under backpressure must still complete.

        The only session reads a collapsed source, so its admission check
        always says "defer" — but with nothing else runnable, holding it
        back buys nothing.  The serving loop must force-admit it instead of
        spinning (or waiting for a past admit time), and the session must
        finish with exactly its source's rows.
        """
        relation = _relation("f", rows=40)
        catalog = Catalog()
        catalog.register(relation.name, relation.schema)
        server = QueryServer(
            catalog,
            {relation.name: _flaky_source(relation)},
            policy="round_robin",
            quantum_tuples=16,
            admission_backpressure=True,
        )
        query = _scan(relation.name)
        # Admitted after the collapse so the telemetry sample exists.
        server.submit(query, admit_at=0.02, label="flaky")
        report = server.run()

        assert report.backpressure_deferred == ["flaky"], (
            "the collapsed-source session was never deferred — the guard "
            "was not exercised"
        )
        assert len(report.served) == 1
        (served,) = report.served
        assert served.quanta >= 1
        assert_same_bag(served.rows, reference_spja(query, {"f": relation}))

    @pytest.mark.parametrize("policy", ["round_robin", "shortest_remaining_cost"])
    def test_flaky_session_defers_behind_healthy_pool_then_completes(self, policy):
        """Mixed pool: the flaky session waits, healthy ones run, all finish."""
        catalog = Catalog()
        sources: dict[str, object] = {}
        relations: dict[str, Relation] = {}
        queries = []
        for index in range(3):
            name = f"h{index}"
            relation = _relation(name, rows=40, seed=index)
            relations[name] = relation
            sources[name] = _healthy_source(relation)
            catalog.register(name, relation.schema)
            queries.append(_scan(name))
        flaky_relation = _relation("f", rows=40)
        relations["f"] = flaky_relation
        sources["f"] = _flaky_source(flaky_relation)
        catalog.register("f", flaky_relation.schema)
        flaky_query = _scan("f")

        server = QueryServer(
            catalog,
            sources,
            policy=policy,
            quantum_tuples=16,
            admission_backpressure=True,
        )
        for query in queries:
            server.submit(query, admit_at=0.0, label=query.name)
        server.submit(flaky_query, admit_at=0.01, label="q_f")
        report = server.run()

        assert "q_f" in report.backpressure_deferred
        assert len(report.served) == len(queries) + 1
        by_label = {served.label: served for served in report.served}
        for query in queries + [flaky_query]:
            served = by_label[query.name]
            assert_same_bag(served.rows, reference_spja(query, relations))
        # The deferred session ran after the healthy pool drained.
        flaky_finish = by_label["q_f"].finished_at
        assert all(
            by_label[query.name].finished_at <= flaky_finish for query in queries
        )


class TestBackpressureP95:
    HEALTHY_SESSIONS = 20

    def _pool(self):
        """20 healthy scan sessions plus one join over a collapsed source.

        The flaky join's healthy side is large, so without backpressure its
        hash-build work charges the shared clock interleaved with every
        healthy session.  Nearest-rank p95 over 21 latencies is the worst
        *healthy* latency — exactly what deferral protects.
        """
        catalog = Catalog()
        sources: dict[str, object] = {}
        relations: dict[str, Relation] = {}
        for index in range(4):
            name = f"h{index}"
            relation = _relation(name, rows=40, seed=index)
            relations[name] = relation
            sources[name] = _healthy_source(relation)
            catalog.register(name, relation.schema)
        flaky = _relation("f", rows=48, width=5)
        big = _relation("g", rows=400, width=5, seed=9)
        relations["f"] = flaky
        relations["g"] = big
        sources["f"] = _flaky_source(
            flaky, trickle_seconds=30.0, trickle_rate=1.5
        )
        sources["g"] = _healthy_source(big, rate=20000.0)
        catalog.register("f", flaky.schema)
        catalog.register("g", big.schema)
        healthy_queries = [
            SPJAQuery(f"scan_{index}", (f"h{index % 4}",), ())
            for index in range(self.HEALTHY_SESSIONS)
        ]
        flaky_query = SPJAQuery(
            "flaky_join",
            ("f", "g"),
            (JoinPredicate("f", "f_k", "g", "g_k"),),
        )
        return catalog, sources, relations, healthy_queries, flaky_query

    def _run(self, backpressure: bool):
        catalog, sources, relations, healthy_queries, flaky_query = self._pool()
        server = QueryServer(
            catalog,
            sources,
            policy="round_robin",
            quantum_tuples=16,
            admission_backpressure=backpressure,
        )
        for query in healthy_queries:
            server.submit(query, admit_at=0.0, label=query.name)
        server.submit(flaky_query, admit_at=0.004, label=flaky_query.name)
        report = server.run()
        by_name = {query.name: query for query in healthy_queries}
        by_name[flaky_query.name] = flaky_query
        answers = {
            served.label: _canonical(
                served.rows,
                served.schema.names,
                by_name[served.label],
                relations,
            )
            for served in report.served
        }
        return report, answers, relations, healthy_queries, flaky_query

    def test_backpressure_improves_p95_without_changing_answers(self):
        baseline, base_answers, relations, healthy, flaky_query = self._run(False)
        deferred, defer_answers, _, _, _ = self._run(True)

        assert baseline.backpressure_deferred == []
        assert deferred.backpressure_deferred == [flaky_query.name]
        assert len(baseline.served) == len(deferred.served) == len(healthy) + 1

        # Answers are pinned: every session returns the same multiset under
        # both configurations, and matches the brute-force oracle.
        assert base_answers == defer_answers
        for query in healthy + [flaky_query]:
            reference = Counter(map(tuple, reference_spja(query, relations)))
            assert base_answers[query.name] == reference, query.name

        # Keeping quanta with the healthy pool improves its tail latency.
        p95_off = baseline.latency_percentile(0.95)
        p95_on = deferred.latency_percentile(0.95)
        assert p95_on < p95_off, (
            f"backpressure did not improve p95: {p95_on:.4f}s (on) vs "
            f"{p95_off:.4f}s (off)"
        )


class TestRateSeededPlans:
    def _pool(self):
        flaky = Relation(
            "f",
            Schema.from_names(["f_k", "f_v"], relation="f"),
            [(i, i * 3) for i in range(24)],
        )
        h1 = Relation(
            "h1",
            Schema.from_names(["h1_k", "h1_j"], relation="h1"),
            [(i % 24, i % 7) for i in range(120)],
        )
        h2 = Relation(
            "h2",
            Schema.from_names(["h2_j", "h2_v"], relation="h2"),
            [(i % 7, i) for i in range(120)],
        )
        catalog = Catalog()
        catalog.register(
            "f",
            flaky.schema,
            TableStatistics(cardinality=24, promised_rate=2000.0),
        )
        catalog.register("h1", h1.schema, TableStatistics(cardinality=120))
        catalog.register("h2", h2.schema, TableStatistics(cardinality=120))
        sources = {
            "f": _flaky_source(
                flaky,
                promised_rate=2000.0,
                trickle_seconds=30.0,
                trickle_rate=1.0,
            ),
            "h1": _healthy_source(h1, rate=50000.0),
            "h2": _healthy_source(h2, rate=50000.0),
        }
        relations = {"f": flaky, "h1": h1, "h2": h2}
        query_shape = (
            ("f", "h1", "h2"),
            (
                JoinPredicate("f", "f_k", "h1", "h1_k"),
                JoinPredicate("h1", "h1_j", "h2", "h2_j"),
            ),
        )
        return catalog, sources, relations, query_shape

    def _serve(self, rate_seeded):
        """The same query twice, 0.05 s apart: sessions by label, relations, query."""
        catalog, sources, relations, (names, predicates) = self._pool()
        server = QueryServer(
            catalog,
            sources,
            policy="round_robin",
            quantum_tuples=32,
            rate_seeded_plans=rate_seeded,
        )
        first = SPJAQuery("repeat_0", names, predicates)
        server.submit(first, admit_at=0.0, label="first")
        server.submit(SPJAQuery("repeat_1", names, predicates), admit_at=0.05, label="second")
        report = server.run()
        assert len(report.served) == 2
        return {served.label: served for served in report.served}, relations, first

    def test_repeat_query_over_a_known_slow_source_starts_gated(self):
        """The second identical query must *begin* on a gating tree.

        The first session samples the flaky source's delivery into the
        shared stats cache; by the time the repeat arrives the cache's rate
        outlook flags ``f`` as collapsed, and the optimizer's rate-aware
        plan choice gates it — ``f`` joins last, on top — from phase 0,
        with answers identical to the oracle.
        """
        by_label, relations, first = self._serve(rate_seeded=True)
        reference = Counter(map(tuple, reference_spja(first, relations)))
        for label in ("first", "second"):
            served = by_label[label]
            assert (
                _canonical(served.rows, served.schema.names, first, relations)
                == reference
            ), label

        # Cold cache: the first session starts on the work-optimal tree,
        # which joins the tiny ``f`` early (not gated on top).
        first_tree = by_label["first"].report.phases[0].join_tree
        assert not (
            first_tree.right.is_leaf and first_tree.right.relation == "f"
        ), "the cold-start tree already gated f — the comparison is vacuous"

        # Warm cache: the repeat starts gated — ``f`` is the top-level
        # right leaf, so everything else proceeds while f trickles.
        second_tree = by_label["second"].report.phases[0].join_tree
        assert second_tree.right.is_leaf and second_tree.right.relation == "f", (
            f"repeat query did not start gated: phase-0 tree is {second_tree}"
        )

    def test_rate_seeding_off_leaves_the_repeat_ungated(self):
        """Same pool, knob off: both sessions start on the same cold tree."""
        by_label, _relations, _first = self._serve(rate_seeded=False)
        trees = {
            label: str(by_label[label].report.phases[0].join_tree)
            for label in ("first", "second")
        }
        assert trees["first"] == trees["second"]
        second_tree = by_label["second"].report.phases[0].join_tree
        assert not (
            second_tree.right.is_leaf and second_tree.right.relation == "f"
        )

    def test_a_gated_start_does_not_slow_the_repeat(self):
        """Gating ``f`` from phase 0 may not cost the repeat latency (1% slack)."""
        cold, _, _ = self._serve(rate_seeded=False)
        seeded, _, _ = self._serve(rate_seeded=True)
        assert seeded["second"].latency <= cold["second"].latency * 1.01
