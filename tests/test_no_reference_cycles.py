"""Acyclicity guard: a finished query is freed by reference counting.

Corrective processing keeps a phase's join state only until stitch-up has
combined it.  The execution path holds no reference cycle, so a replaced
phase's plan (hash tables and all) is freed when the processor drops it and
the whole query when its report is built.  That is the contract that lets
every driver run its queries with the cyclic collector paused
(:mod:`repro.engine.collector`): whatever a cycle kept alive would stay
until the pause ends.  Three things keep it so:

* a plan's root emits through its ``PlanOutput``, which the root node, the
  batch kernels and the compiled chains bind instead of the plan;
* generated functions (chains, folds, stitch-up routes, the CSV decoder) are
  popped out of the namespace they were ``exec``-ed in, and the predicate
  emitter and the optimizer's tree passes recurse at module level rather
  than through a closure that holds itself;
* an io reader forgets its saved fault, whose traceback holds the reader's
  frames, on ``close()``.

Each case runs once to warm up (imports, code caches), then again with the
collector off, and asserts that a collection afterwards finds nothing.  A
failure prints the garbage's type census.  Every pausing driver has a case:
corrective ``execute``, the static and plan-partitioning executors, both
servers, and a sharded run both inline and forked (whose front-end forks,
reads the result queue, unpickles and merges).
"""

from __future__ import annotations

import gc
import random
import sqlite3
from collections import Counter
from dataclasses import replace

import pytest

from repro.baselines.plan_partitioning import PlanPartitioningExecutor
from repro.baselines.static_executor import StaticExecutor
from repro.core.corrective import CorrectiveQueryProcessor
from repro.engine.cost import CostModel
from repro.engine.pipelined import PipelinedExecutor, SourceCursor
from repro.io import (
    CSVFileTransport,
    DBAPITransport,
    FaultPlan,
    FixtureServer,
    HTTPTransport,
    InjectedTransport,
    JSONLinesTransport,
    ResilientSource,
)
from repro.io.backends import write_csv, write_jsonl, write_sqlite
from repro.io.faults import DELAY, OUTAGE, RESET, TRUNCATE, Fault
from repro.optimizer.plans import JoinTree, PreAggPoint
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.expressions import JoinPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.serving.sharded import ShardedQueryServer
from repro.workloads.queries import query_3a, query_10a
from repro.workloads.scenarios import (
    FAILOVER_STALL_FRACTION,
    POLLING_FRACTION,
    SWITCH_THRESHOLD,
    failover_scenario,
    rate_scenario,
)


def assert_no_cycles(run) -> None:
    """Run ``run`` to warm up, then again with the collector off: nothing
    the second run leaves behind may need the collector to be freed."""
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        found = gc.collect()
        census = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0, f"{found} objects in reference cycles: {census.most_common(12)}"


def bad_tree(query) -> JoinTree:
    """Biggest relations joined first: the corrective processor switches."""
    order = ["lineitem", "orders", "customer", "supplier", "nation", "region"]
    return JoinTree.left_deep([r for r in order if r in query.relations])


#: (batch_size, engine_mode): tuple, interpreted batch 1 / 64, compiled 64
ENGINES = {
    "tuple": (None, "interpreted"),
    "batch1": (1, "interpreted"),
    "batch64": (64, "interpreted"),
    "compiled64": (64, "compiled"),
}

#: an aggregate query (folding stitch-up routes) and its SPJ form
#: (materialising routes)
QUERIES = {
    "Q3A": query_3a,
    "Q3A-spj": lambda: replace(query_3a(), name="Q3A-spj", aggregation=None),
}


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_corrective_run_leaves_no_cycles(small_tpch, engine, query_name):
    batch_size, engine_mode = ENGINES[engine]
    query = QUERIES[query_name]()

    def run():
        report = CorrectiveQueryProcessor(
            small_tpch.catalog(with_cardinalities=False),
            small_tpch.as_sources(),
            polling_interval_seconds=0.1,
            batch_size=batch_size,
            engine_mode=engine_mode,
        ).execute(query, initial_tree=bad_tree(query))
        assert report.num_phases >= 2 and report.rows
        assert report.stitchup.combinations_evaluated > 0

    assert_no_cycles(run)


@pytest.mark.parametrize("batch_size", [None, 64])
def test_a_plan_with_a_preaggregation_stage_leaves_no_cycles(small_tpch, batch_size):
    query = query_10a()
    tree = JoinTree.left_deep(["customer", "nation", "orders", "lineitem"])
    point = PreAggPoint(frozenset({"lineitem"}), "window", ("l_orderkey",))

    def run():
        rows, plan = PipelinedExecutor(
            small_tpch.as_sources(), batch_size=batch_size
        ).execute(query, tree, preagg_points=(point,))
        assert rows and plan.stages

    assert_no_cycles(run)


def test_an_order_adaptive_merge_join_run_leaves_no_cycles():
    rng = random.Random(11)
    n = 2500
    relations = {
        "r": Relation(
            "r",
            Schema.from_names(["r_pk", "r_val"], relation="r"),
            [(i, rng.randrange(50)) for i in range(n)],
        ),
        "s": Relation(
            "s",
            Schema.from_names(["s_fk", "s_val"], relation="s"),
            sorted((rng.randrange(n), rng.randrange(50)) for _ in range(n)),
        ),
    }
    query = SPJAQuery("q", ("r", "s"), (JoinPredicate("s", "s_fk", "r", "r_pk"),))
    catalog = Catalog()
    for name, relation in relations.items():
        catalog.register(name, relation.schema)

    def run():
        report = CorrectiveQueryProcessor(
            catalog,
            dict(relations),
            polling_interval_seconds=0.01,
            order_adaptive=True,
        ).execute(query, poll_step_limit=200)
        assert {"r ⋈ s": "merge"} in report.details["phase_join_algorithms"]

    assert_no_cycles(run)


@pytest.mark.parametrize("knob", ["rate_adaptive", "failover_adaptive"])
def test_a_rate_or_failover_adaptive_run_leaves_no_cycles(knob):
    def run():
        cost_model = CostModel()
        if knob == "rate_adaptive":
            query, catalog, sources, tree, work_floor = rate_scenario(
                "slow", 3000, 2004, cost_model
            )
            options = {"switch_threshold": SWITCH_THRESHOLD}
        else:
            query, catalog, sources, work_floor = failover_scenario(3000, 2004, cost_model)
            tree = None
            options = {"failover_stall_seconds": FAILOVER_STALL_FRACTION * work_floor}
        report = CorrectiveQueryProcessor(
            catalog,
            sources,
            cost_model,
            polling_interval_seconds=POLLING_FRACTION * work_floor,
            batch_size=64,
            engine_mode="compiled",
            **{knob: True},
            **options,
        ).execute(query, initial_tree=tree)
        assert report.rows

    assert_no_cycles(run)


def fault_plan(row_count: int) -> FaultPlan:
    """A connect flap, then one read fault of each kind mid-stream."""
    kinds = (RESET, TRUNCATE, OUTAGE, DELAY)
    offsets = [row_count * (index + 1) // (len(kinds) + 1) for index in range(len(kinds))]
    return FaultPlan(
        {
            offset: Fault(kind, offset, seconds=0.001 if kind == DELAY else 0.0, count=1)
            for kind, offset in zip(kinds, offsets)
        },
        connect_flaps=1,
    )


@pytest.mark.parametrize("kind", ["csv", "jsonl", "sqlite", "http"])
def test_a_faulted_envelope_read_leaves_no_cycles(tiny_tpch, tmp_path, kind):
    relation = tiny_tpch.relations["orders"]
    path = str(tmp_path / f"orders.{kind}")
    if kind == "csv":
        write_csv(path, relation)
    elif kind == "jsonl":
        write_jsonl(path, relation)
    elif kind == "sqlite":
        sql = write_sqlite(path, relation)

    def transport():
        if kind == "csv":
            inner = CSVFileTransport("orders", path, relation.schema)
        elif kind == "jsonl":
            inner = JSONLinesTransport("orders", path, relation.schema)
        elif kind == "sqlite":
            inner = DBAPITransport(
                "orders", lambda: sqlite3.connect(path), sql, relation.schema
            )
        else:
            # a fresh server-side script: each fault fires once
            url = server.add_relation("orders", relation, fault_plan(len(relation.rows)))
            return HTTPTransport("orders", url, relation.schema)
        return InjectedTransport(inner, fault_plan(len(relation.rows)))

    def run():
        source = ResilientSource(transport(), chunk_rows=16)
        cursor = SourceCursor("orders", source, prefetch=64)
        rows = []
        while not cursor.exhausted:
            rows += cursor.read_batch(64)[0]
        assert rows == relation.rows
        assert source.telemetry.resumes >= 3 and source.telemetry.connect_retries >= 1

    with FixtureServer() as server:
        assert_no_cycles(run)


def test_an_inline_sharded_run_with_a_partitioned_query_leaves_no_cycles(small_tpch):
    def run():
        server = ShardedQueryServer(
            small_tpch.catalog(with_cardinalities=False),
            small_tpch.as_sources(),
            workers=2,
            batch_size=64,
            engine_mode="compiled",
            quantum_tuples=200,
            polling_interval_seconds=0.1,
            start_method="inline",
        )
        server.submit(query_3a())
        server.submit(query_10a())
        server.submit_partitioned(query_3a(), 2)
        report = server.run()
        assert len(report.served) == 2 and len(report.partitioned[0].fragments) == 2

    assert_no_cycles(run)


def test_a_forked_sharded_run_leaves_no_cycles_in_the_front_end(small_tpch):
    """The default start method: fork, the result queue, unpickling and the
    partition merge all run in this process."""

    def run():
        server = ShardedQueryServer(
            small_tpch.catalog(with_cardinalities=False),
            small_tpch.as_sources(),
            workers=2,
            batch_size=64,
            quantum_tuples=200,
            polling_interval_seconds=0.1,
        )
        server.submit(query_3a())
        server.submit(query_10a())
        server.submit_partitioned(query_3a(), 2)
        report = server.run()
        assert len(report.served) == 2 and len(report.partitioned[0].fragments) == 2

    assert_no_cycles(run)


def test_an_inline_server_run_leaves_no_cycles(small_tpch):
    """The in-process shard: the worker's driver runs in this process."""

    def run():
        server = ShardedQueryServer(
            small_tpch.catalog(with_cardinalities=False),
            small_tpch.as_sources(),
            workers=1,
            start_method="inline",
            batch_size=64,
            quantum_tuples=200,
            polling_interval_seconds=0.1,
        )
        server.submit(query_3a())
        server.submit(query_10a(), initial_tree=bad_tree(query_10a()))
        assert len(server.run().served) == 2

    assert_no_cycles(run)


@pytest.mark.parametrize("batch_size", [None, 64])
def test_a_static_run_leaves_no_cycles(small_tpch, batch_size):
    def run():
        report = StaticExecutor(
            small_tpch.catalog(with_cardinalities=False),
            small_tpch.as_sources(),
            batch_size=batch_size,
        ).execute(query_3a(), join_tree=bad_tree(query_3a()))
        assert report.rows

    assert_no_cycles(run)


@pytest.mark.parametrize("batch_size", [None, 64])
def test_a_plan_partitioning_run_leaves_no_cycles(small_tpch, batch_size):
    def run():
        report = PlanPartitioningExecutor(
            small_tpch.catalog(with_cardinalities=False),
            small_tpch.as_sources(),
            materialize_after_joins=1,
            batch_size=batch_size,
        ).execute(query_10a())
        assert report.rows and report.materialized

    assert_no_cycles(run)
