"""The defaults that the equivalence suites prove safe.

* Every driver that runs queries to completion pauses the cyclic collector
  (:func:`repro.engine.collector.collector_paused`): not one collection
  starts inside it, and the caller's collector state comes back exactly,
  on return and on exception, however the drivers nest.  Reference counting
  frees what a query leaves; ``test_no_reference_cycles.py`` is the
  contract that makes that true.
* ``batch_size`` alone selects the fused compiled kernels; tuple mode and a
  plan with a pre-aggregation stage run the interpreted kernel.
"""

from __future__ import annotations

import gc
import inspect
import sys
from functools import partial

import pytest

import repro.engine.compiled as compiled_module
import repro.serving.sharded as sharded_module
from repro.baselines.plan_partitioning import PlanPartitioningExecutor
from repro.baselines.static_executor import StaticExecutor
from repro.core.corrective import CorrectiveQueryProcessor
from repro.core.options import ProcessorOptions
from repro.engine.collector import collector_paused
from repro.engine.operators.aggregate import GroupAccumulator
from repro.engine.pipelined import PipelinedExecutor
from repro.optimizer.plans import JoinTree, PlanError, PreAggPoint
from repro.serving.sharded import ShardedQueryServer
from repro.serving.worker import drive_shard
from repro.workloads.queries import query_3a, query_10a

BAD_TREE = JoinTree.left_deep(["lineitem", "orders", "customer"])


#: the bodies of the drivers that pause the collector (``unwrap`` reaches
#: past the pausing decorator)
DRIVER_BODIES = frozenset(
    inspect.unwrap(driver).__code__
    for driver in (
        CorrectiveQueryProcessor.execute,
        StaticExecutor.execute,
        PlanPartitioningExecutor.execute,
        ShardedQueryServer.run,
        drive_shard,
    )
)


def _inside_a_driver(frame) -> bool:
    while frame is not None:
        if frame.f_code in DRIVER_BODIES:
            return True
        frame = frame.f_back
    return False


@pytest.fixture
def collections():
    """One entry per collection started while the fixture is live: whether
    a driver's body was on the stack when it started."""
    started: list[bool] = []

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(_inside_a_driver(sys._getframe(1)))

    gc.callbacks.append(count)
    try:
        yield started
    finally:
        gc.callbacks.remove(count)


@pytest.fixture
def collector_enabled():
    """Run the test with the collector on and eager (a young-generation pass
    every 50 net allocations, so a small run would start dozens), and leave
    it as it was found."""
    was_enabled = gc.isenabled()
    thresholds = gc.get_threshold()
    gc.set_threshold(50, *thresholds[1:])
    gc.enable()
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        if not was_enabled:
            gc.disable()


def _processor(tpch, **knobs) -> CorrectiveQueryProcessor:
    return CorrectiveQueryProcessor(
        tpch.catalog(with_cardinalities=False),
        tpch.as_sources(),
        polling_interval_seconds=0.1,
        **knobs,
    )


def _server(cls, tpch, **knobs):
    server = cls(
        tpch.catalog(with_cardinalities=False),
        tpch.as_sources(),
        quantum_tuples=200,
        polling_interval_seconds=0.1,
        **knobs,
    )
    server.submit(query_3a())
    server.submit(query_10a())
    return server


#: each driver over ``small_tpch``: the factory builds everything the call
#: needs and returns the call alone
DRIVERS = {
    "corrective": lambda tpch: partial(
        _processor(tpch).execute, query_3a(), initial_tree=BAD_TREE
    ),
    "corrective-batched": lambda tpch: partial(
        _processor(tpch, batch_size=64).execute, query_3a(), initial_tree=BAD_TREE
    ),
    "static": lambda tpch: partial(
        StaticExecutor(tpch.catalog(with_cardinalities=False), tpch.as_sources()).execute,
        query_3a(),
        join_tree=BAD_TREE,
    ),
    "plan-partitioning": lambda tpch: partial(
        PlanPartitioningExecutor(
            tpch.catalog(with_cardinalities=False),
            tpch.as_sources(),
            materialize_after_joins=1,
        ).execute,
        query_10a(),
    ),
    "sharded-inline": lambda tpch: _server(
        ShardedQueryServer, tpch, workers=2, start_method="inline"
    ).run,
    # the front-end's fork, queue, unpickle and merge path
    "sharded-forked": lambda tpch: _server(ShardedQueryServer, tpch, workers=2).run,
}


def run(driver: str, tpch):
    return DRIVERS[driver](tpch)()


@pytest.mark.usefixtures("collector_enabled")
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_no_collection_starts_inside_a_driver(small_tpch, collections, driver):
    run(driver, small_tpch)  # warm up imports and code caches
    gc.collect()
    collections.clear()
    run(driver, small_tpch)
    # the first allocation after the pause may start one young pass, but
    # only once the driver has returned
    assert collections.count(True) == 0, collections
    assert gc.isenabled()


@pytest.mark.usefixtures("collector_enabled")
def test_the_same_run_outside_a_driver_collects(small_tpch, collections):
    """The control: run by the undecorated body, with no pause around it,
    the corrective run above starts dozens of collections."""
    processor = _processor(small_tpch)
    body = inspect.unwrap(CorrectiveQueryProcessor.execute)
    collections.clear()
    body(processor, query_3a(), initial_tree=BAD_TREE)
    assert len(collections) >= 24


@pytest.mark.usefixtures("collector_enabled")
def test_a_driver_that_raises_restores_the_collector(small_tpch, monkeypatch):
    def failing_sink(self, row):
        raise RuntimeError("the sink failed")

    monkeypatch.setattr(GroupAccumulator, "accumulate", failing_sink)
    with pytest.raises(RuntimeError, match="the sink failed"):
        run("corrective", small_tpch)
    assert gc.isenabled()


def test_a_caller_that_disabled_the_collector_keeps_it_disabled(small_tpch):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run("corrective", small_tpch)
        run("sharded-inline", small_tpch)
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.usefixtures("collector_enabled")
def test_nested_drivers_keep_the_collector_paused_until_the_outermost_exits(
    small_tpch, monkeypatch
):
    """Inline ``run`` -> ``drive_shard`` -> ``execute``: every inner driver
    exits into a driver that still holds the pause."""
    observed: list[tuple[str, bool]] = []
    drive_shard = sharded_module.drive_shard

    def spy(task):
        observed.append(("drive_shard entered", gc.isenabled()))
        result = drive_shard(task)
        observed.append(("drive_shard returned", gc.isenabled()))
        run("corrective", small_tpch)
        observed.append(("execute returned", gc.isenabled()))
        return result

    monkeypatch.setattr(sharded_module, "drive_shard", spy)
    run("sharded-inline", small_tpch)
    assert observed and not any(enabled for _, enabled in observed), observed
    assert gc.isenabled()


@pytest.mark.usefixtures("collector_enabled")
def test_the_pause_nests_and_survives_an_exception():
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("inner")
        assert not gc.isenabled()
    assert gc.isenabled()


# -- the kernel a plan runs ----------------------------------------------------


@pytest.fixture
def compiles(monkeypatch):
    """One entry per plan whose leaf chains were compiled."""
    compiled: list[int] = []
    compile_plan_chains = compiled_module.compile_plan_chains

    def counting(plan):
        compiled.append(plan.phase_id)
        return compile_plan_chains(plan)

    monkeypatch.setattr(compiled_module, "compile_plan_chains", counting)
    return compiled


def test_a_batched_run_compiles_its_chains_by_default(small_tpch, compiles):
    assert ProcessorOptions(batch_size=64).engine_mode is None
    report = run("corrective-batched", small_tpch)
    assert report.num_phases >= 2
    assert compiles == list(range(report.num_phases))


def test_tuple_mode_and_the_interpreted_reference_compile_nothing(
    small_tpch, compiles
):
    run("corrective", small_tpch)
    _processor(small_tpch, batch_size=64, engine_mode="interpreted").execute(
        query_3a(), initial_tree=BAD_TREE
    )
    assert compiles == []


def test_a_plan_with_a_stage_runs_the_interpreted_kernel(tiny_tpch, compiles):
    query = query_10a()
    tree = JoinTree.left_deep(["customer", "nation", "orders", "lineitem"])
    point = PreAggPoint(frozenset({"lineitem"}), "window", ("l_orderkey",))
    rows, plan = PipelinedExecutor(tiny_tpch.as_sources(), batch_size=64).execute(
        query, tree, preagg_points=(point,)
    )
    assert rows and plan.stages
    assert plan.engine_mode == "interpreted" and compiles == []
    with pytest.raises(PlanError, match=r"compiled.*pre-aggregation.*Q10A"):
        PipelinedExecutor(
            tiny_tpch.as_sources(), batch_size=64, engine_mode="compiled"
        ).execute(query, tree, preagg_points=(point,))
