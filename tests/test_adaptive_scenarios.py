"""Each opt-in adaptivity knob's winning scenario, held on simulated seconds.

``repro.workloads.scenarios`` builds the seeded scenarios ``rate_adaptive``,
``failover_adaptive`` and ``order_adaptive`` are kept for; every test here
runs one of them twice over identical data — knob off, knob on — in both
batch engines and asserts on the two ``CorrectiveExecutionReport``s directly.
Simulated seconds are deterministic work accounting, so the bounds are exact
statements, not timing assertions.

The differential suites pin that these policies never change answers and
that they fire on a population; only here is it pinned that they *win* (or,
where the scenario is built for it, rightly decline).  Every test also fails
when its knob is left off on the adaptive side — the scenarios that must not
switch carry an explicit sign that the policy was live.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.corrective import CorrectiveQueryProcessor
from repro.engine.cost import CostModel
from repro.workloads.scenarios import (
    FAILOVER_STALL_FRACTION,
    ORDER_POLL_STEP_LIMIT,
    ORDER_POLLING_INTERVAL,
    ORDER_SCENARIOS,
    POLLING_FRACTION,
    RATE_SCENARIOS,
    SWITCH_THRESHOLD,
    failover_scenario,
    order_scenario,
    rate_scenario,
)

SEED = 2004
#: local tuples of the rate / failover join and tuples per source of the
#: order join (the experiment harness's default scale factor, 0.003)
N = 9000
N_ORDER = 3000

ENGINE_CONFIGS = (("interpreted", 64), ("compiled", 64))
per_engine = pytest.mark.parametrize(
    "config", ENGINE_CONFIGS, ids=[mode for mode, _ in ENGINE_CONFIGS]
)


def _rate(name, knob, engine_mode, batch_size, runs=1):
    cost_model = CostModel()
    query, catalog, sources, tree, work_floor = rate_scenario(name, N, SEED, cost_model)
    processor = CorrectiveQueryProcessor(
        catalog,
        sources,
        cost_model,
        polling_interval_seconds=POLLING_FRACTION * work_floor,
        switch_threshold=SWITCH_THRESHOLD,
        batch_size=batch_size,
        engine_mode=engine_mode,
        rate_adaptive=knob,
    )
    return [processor.execute(query, initial_tree=tree) for _ in range(runs)][-1]


def _failover(_name, knob, engine_mode, batch_size, runs=1):
    cost_model = CostModel()
    query, catalog, sources, work_floor = failover_scenario(N, SEED, cost_model)
    processor = CorrectiveQueryProcessor(
        catalog,
        sources,
        cost_model,
        polling_interval_seconds=POLLING_FRACTION * work_floor,
        batch_size=batch_size,
        engine_mode=engine_mode,
        failover_adaptive=knob,
        failover_stall_seconds=FAILOVER_STALL_FRACTION * work_floor,
    )
    return [processor.execute(query) for _ in range(runs)][-1]


def _order(name, knob, engine_mode, batch_size):
    query, catalog, sources = order_scenario(name, N_ORDER, SEED)
    return CorrectiveQueryProcessor(
        catalog,
        sources,
        polling_interval_seconds=ORDER_POLLING_INTERVAL,
        batch_size=batch_size,
        engine_mode=engine_mode,
        order_adaptive=knob,
    ).execute(query, poll_step_limit=ORDER_POLL_STEP_LIMIT)


@pytest.fixture(scope="module")
def reports():
    """``reports(run, name, config)`` → ``(knob off, knob on)``, executed once."""
    cache = {}

    def get(run, name, config):
        key = (run, name, config)
        if key not in cache:
            cache[key] = tuple(run(name, knob, *config) for knob in (False, True))
        return cache[key]

    return get


def _speedup(baseline, adaptive):
    return baseline.simulated_seconds / adaptive.simulated_seconds


def _rate_switches(report):
    return [
        switch
        for switch in report.details["adaptation"]["switches"]
        if switch["policy"] == "source_rate"
    ]


@per_engine
@pytest.mark.parametrize("name", ["slow", "bursty"])
def test_rate_policy_switches_to_the_gating_plan_and_wins(reports, name, config):
    static, adaptive = reports(_rate, name, config)
    assert _rate_switches(adaptive), "the source-rate policy never switched plans"
    assert adaptive.num_phases >= 2
    assert _speedup(static, adaptive) >= 1.3
    assert Counter(adaptive.rows) == Counter(static.rows)


@per_engine
def test_rate_policy_declines_when_sunk_state_is_prohibitive(reports, config):
    """Flaky: the collapse only shows after enough local state has built up
    that stitch-up would dominate, so the policy matches static execution."""
    static, adaptive = reports(_rate, "flaky", config)
    # The policy was live and saw the collapse (it demoted ``f`` in the read
    # schedule); what it declined is the plan switch.
    assert adaptive.details["adaptation"]["reprioritizations"] > 0
    assert not _rate_switches(adaptive)
    assert _speedup(static, adaptive) >= 0.99
    assert Counter(adaptive.rows) == Counter(static.rows)


@per_engine
def test_mirror_failover_beats_the_dead_primary(reports, config):
    static, adaptive = reports(_failover, "failover", config)
    assert adaptive.details["adaptation"]["failovers"], "no cursor was re-pointed"
    assert _speedup(static, adaptive) >= 1.3
    assert Counter(adaptive.rows) == Counter(static.rows)


def _gate(rate):
    return (
        "source_rate",
        f"source-rate policy: f delivered {rate} tuples/s against a promise of "
        "6649; switching cuts exposed work from 0.36s to 0.16s by gating joins "
        "behind its arrivals",
    )


#: scenario → the knob-on run's (policy, reason) actions (plan switches,
#: then failovers), its read re-prioritizations and ``repr`` of its
#: simulated seconds.  No golden turns these policies on, so this is what
#: fails when a telemetry sample they read moves or goes missing.
DECISION_PINS = {
    "slow": ([_gate(100)], 2, "2.2043449999999964"),
    "bursty": ([_gate(0)], 2, "2.0443350000000002"),
    "flaky": ([], 2, "2.699895"),
    "failover": (
        [
            (
                "mirror_failover",
                "f in sustained outage (2 polls, 0 tuples consumed); resuming "
                "remainder from mirror 'f_mirror'",
            )
        ],
        0,
        "2.690405",
    ),
}


@per_engine
@pytest.mark.parametrize(
    "run, name",
    [(_rate, name) for name in RATE_SCENARIOS] + [(_failover, "failover")],
    ids=lambda value: value if isinstance(value, str) else value.__name__.strip("_"),
)
def test_rate_and_failover_decisions_are_pinned(reports, run, name, config):
    _, adaptive = reports(run, name, config)
    assert _decisions(adaptive) == DECISION_PINS[name]


def _decisions(report):
    adaptation = report.details["adaptation"]
    actions = [
        (action["policy"], action["reason"])
        for action in adaptation["switches"] + adaptation["failovers"]
    ]
    return actions, adaptation["reprioritizations"], repr(report.simulated_seconds)


@pytest.mark.parametrize(
    "run, name", [(_rate, "slow"), (_failover, "failover")], ids=["slow", "failover"]
)
def test_a_reused_processor_repeats_its_decisions(run, name):
    """Policy instances outlive runs, so per-run state lives in
    ``AdaptationRun.scratch``: a processor's second run of a query makes the
    first run's decisions, to the simulated second."""
    assert _decisions(run(name, True, "compiled", 64, runs=2)) == DECISION_PINS[name]


#: scenario → (merge strategy ran, speed-up above, peak-state reduction above)
ORDER_BOUNDS = {
    "sorted_promised": (True, 1.0, 2.0),
    "sorted_detected": (True, 1.0, 2.0),
    # stays merge-eligible: the archive absorbs the stragglers
    "near_sorted": (True, 0.0, 0.0),
    # the selector must not fire; detector bookkeeping stays within 5%
    "unordered": (False, 0.95, 0.0),
    # trusting a lying promise costs the merge node's late-tuple fallback,
    # bounded and — above all — correct
    "lying_promise": (True, 0.75, 0.0),
}


@per_engine
@pytest.mark.parametrize("name", list(ORDER_SCENARIOS))
def test_order_adaptive_bounds_per_source_mix(reports, name, config):
    hash_only, adaptive = reports(_order, name, config)
    merge_ran, speedup_above, reduction_above = ORDER_BOUNDS[name]
    # Live even where merge must not run: the detectors watched the join keys.
    assert adaptive.details["observed_statistics"].orderings
    assert merge_ran is any(
        "merge" in algorithms.values()
        for algorithms in adaptive.details["phase_join_algorithms"]
    )
    assert _speedup(hash_only, adaptive) > speedup_above
    assert (
        hash_only.details["peak_state_tuples"] / adaptive.details["peak_state_tuples"]
        > reduction_above
    )
    assert Counter(adaptive.rows) == Counter(hash_only.rows)


@pytest.mark.parametrize(
    "run, name",
    [(_rate, name) for name in RATE_SCENARIOS]
    + [(_failover, "failover")]
    + [(_order, name) for name in ORDER_SCENARIOS],
    ids=lambda value: value if isinstance(value, str) else value.__name__.strip("_"),
)
def test_compiled_simulated_seconds_equal_interpreted(reports, run, name):
    interpreted, compiled = (reports(run, name, config) for config in ENGINE_CONFIGS)
    for side in (0, 1):
        assert compiled[side].simulated_seconds == interpreted[side].simulated_seconds
