"""Statistics learned by one sharded run make the next run cheaper.

The shared statistics cache exists so that what finished queries observed —
selectivities, multiplicative-join flags, exact cardinalities of exhausted
sources — seeds the queries that come after.  Here Q3A, Q10A and Q5 run
through one inline :class:`ShardedQueryServer` over a catalog without
statistics (cold), then through a second server that shares the first one's
``stats_cache`` (warm).  Between the two the learning crosses every step of
the sharded protocol: each worker's ``snapshot_state``, the front-end's
``absorb_snapshot``, the warm run-start snapshot and each warm worker's
``hydrate_state``, ``apply_cardinalities`` and ``seed_for``.

Warm answers equal cold answers, no query is slower warm, and Q10A and Q5
are strictly faster, in simulated seconds, on every seed.
"""

from __future__ import annotations

import pytest

from helpers import assert_same_aggregates

from repro.experiments.common import build_dataset
from repro.serving.sharded import ShardedQueryServer
from repro.workloads.queries import query_3a, query_5, query_10a

SCALE_FACTOR = 0.003
SEEDS = (0, 1, 2, 3, 4)
QUERIES = (query_3a, query_10a, query_5)
#: the queries whose warm run must be strictly cheaper
STRICTLY_FASTER = ("Q10A", "Q5")


def _serve(dataset, stats_cache=None):
    """One inline sharded run of every query; the server and its answers."""
    server = ShardedQueryServer(
        dataset.catalog_no_statistics,
        dataset.sources,
        workers=2,
        start_method="inline",
        stats_cache=stats_cache,
        engine_mode="compiled",
        batch_size=64,
    )
    for make_query in QUERIES:
        query = make_query()
        server.submit(query, label=query.name)
    report = server.run()
    return server, {served.label: served.report for served in report.served}


@pytest.mark.parametrize("seed", SEEDS)
def test_a_warm_cache_never_slows_a_query_and_speeds_up_q10a_and_q5(seed):
    dataset = build_dataset("uniform", SCALE_FACTOR, 0.0, seed)
    cold_server, cold = _serve(dataset)
    _, warm = _serve(dataset, stats_cache=cold_server.stats_cache)
    assert sorted(cold) == sorted(warm) == sorted(q().name for q in QUERIES)
    for name, cold_report in cold.items():
        warm_report = warm[name]
        assert_same_aggregates(warm_report.rows, cold_report.rows)
        assert warm_report.simulated_seconds <= cold_report.simulated_seconds, name
        if name in STRICTLY_FASTER:
            assert warm_report.simulated_seconds < cold_report.simulated_seconds, name
