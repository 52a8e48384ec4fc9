"""Serving sessions whose sources are silent when the run starts.

Every source sits behind a connection latency, so at t=0 no session has
anything to read; in the second pattern each source also goes silent again
mid-stream.  Each session must still be served, whichever order the
sessions are submitted in: it stalls on its own clock until its data
arrives, as a solo run does, so its answer equals the brute-force oracle and its metrics and
``repr(simulated_seconds)`` equal its solo run's, and it cannot finish
before its source came alive.
"""

from __future__ import annotations

import random

import pytest

from helpers import assert_same_bag, reference_spja

from repro.core.corrective import CorrectiveQueryProcessor
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serving.sharded import ShardedQueryServer
from repro.sources.network import (
    ConstantRateNetworkModel,
    PhasedRateNetworkModel,
)
from repro.sources.remote import RemoteSource

#: per-session connection latencies: every source is silent until its
#: latency elapses, so at the start every session is blocked at once
DELAYS = (1.0, 1.5, 2.25, 3.0)

ROWS_PER_SOURCE = 40

#: each source delivers a burst at its latency, then nothing for a second
PHASED = ((0.004, 5000.0), (1.0, 0.0))


def _network(delay, phased):
    if phased:
        return PhasedRateNetworkModel(list(PHASED), tail_rate=5000.0, latency=delay)
    return ConstantRateNetworkModel(tuples_per_second=5000.0, latency=delay)


def _pool(phased, seed):
    rng = random.Random(seed)
    catalog = Catalog()
    relations = {}
    queries = []
    for index in range(len(DELAYS)):
        name = f"s{index}"
        schema = Schema.from_names([f"{name}_pk", f"{name}_val"], relation=name)
        rows = [(value, rng.randrange(100)) for value in range(ROWS_PER_SOURCE)]
        relations[name] = Relation(name, schema, rows)
        catalog.register(name, schema)
        queries.append(SPJAQuery(f"q_{name}", (name,), ()))
    return catalog, relations, queries


def _sources(relations, phased):
    return {
        name: RemoteSource(relation, _network(delay, phased))
        for (name, relation), delay in zip(relations.items(), DELAYS)
    }


@pytest.mark.parametrize("phased", [False, True], ids=["silent-start", "re-silent"])
@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_sessions_blocked_at_the_start_are_served_as_solo(order, phased):
    catalog, relations, queries = _pool(phased, seed=23 if phased else 11)
    options = dict(polling_interval_seconds=0.5)
    quantum = 8 if phased else 16
    server = ShardedQueryServer(
        catalog,
        _sources(relations, phased),
        workers=1,
        start_method="inline",
        quantum_tuples=quantum,
        **options,
    )
    submitted = list(zip(queries, DELAYS))
    if order == "reversed":
        submitted.reverse()
    for query, _delay in submitted:
        server.submit(query, label=query.name)
    report = server.run()

    assert [served.query_name for served in report.served] == [
        query.name for query, _delay in submitted
    ]
    for served, (query, delay) in zip(report.served, submitted):
        assert_same_bag(served.rows, reference_spja(query, relations))
        solo = CorrectiveQueryProcessor(
            catalog.copy(), _sources(relations, phased), **options
        ).execute(query, poll_step_limit=quantum)
        assert served.report.metrics.as_dict() == solo.metrics.as_dict()
        assert repr(served.latency) == repr(solo.simulated_seconds)
        # A session cannot finish before its source came alive (and, with a
        # silent second, before the rest of it arrived).
        assert served.latency >= delay + (1.0 if phased else 0.0)
        assert served.report.wait_seconds >= delay
    assert report.makespan == max(served.latency for served in report.served)
