"""Tests for the runtime re-optimizer."""

import pytest

from differential import (
    order_catalog,
    order_workload_variant,
    rate_collapse_setup,
    run_sharded_workloads,
    run_solo_corrective,
)

from repro.core.corrective import CorrectiveQueryProcessor
from repro.experiments.common import build_dataset
from repro.experiments.corrective import worst_left_deep_tree
from repro.optimizer.enumerator import JoinEnumerator
from repro.optimizer.reoptimizer import ReOptimizer
from repro.optimizer.statistics import ObservedStatistics, SelectivityEstimator
from repro.optimizer.plans import JoinTree
from repro.workloads.queries import query_3a, query_5, query_10a
from workload_generator import generate_workload


def bad_tree_for_q3a():
    return JoinTree.join(
        JoinTree.leaf("customer"),
        JoinTree.join(JoinTree.leaf("orders"), JoinTree.leaf("lineitem")),
    )


class TestReOptimizer:
    def test_no_switch_when_running_the_best_plan(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        reoptimizer = ReOptimizer()
        query = query_3a()
        from repro.optimizer.enumerator import Optimizer

        best_tree = Optimizer(catalog).optimize_tree(query)
        decision = reoptimizer.evaluate(best_tree, SelectivityEstimator(catalog, query))
        assert not decision.switch
        assert decision.improvement == pytest.approx(0.0, abs=1e-9)

    def test_switch_recommended_for_clearly_bad_plan(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        reoptimizer = ReOptimizer(switch_threshold=0.95)
        query = query_3a()
        decision = reoptimizer.evaluate(
            bad_tree_for_q3a(), SelectivityEstimator(catalog, query)
        )
        assert decision.switch
        assert decision.recommended_cost < decision.current_cost
        assert decision.improvement > 0

    def test_no_switch_when_almost_done(self, tiny_tpch):
        """If nearly all source data has been consumed there is no point switching."""
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        reoptimizer = ReOptimizer(switch_threshold=0.95)
        query = query_3a()
        observed = ObservedStatistics()
        for name in query.relations:
            total = len(tiny_tpch[name])
            observed.record_source(name, total, total, exhausted=True)
        decision = reoptimizer.evaluate(
            bad_tree_for_q3a(), SelectivityEstimator(catalog, query, observed)
        )
        assert not decision.switch
        assert decision.remaining_fraction <= 0.02

    def test_threshold_controls_eagerness(self, tiny_tpch):
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        query = query_10a()
        from repro.optimizer.enumerator import Optimizer

        slightly_suboptimal = Optimizer(
            tiny_tpch.catalog(with_cardinalities=False)
        ).optimize_tree(query)
        strict = ReOptimizer(switch_threshold=0.01)
        decision = strict.evaluate(
            slightly_suboptimal, SelectivityEstimator(catalog, query)
        )
        # With an extremely demanding threshold, marginal improvements never
        # trigger a switch.
        assert not decision.switch

    def test_invocation_counter(self, tiny_tpch):
        catalog = tiny_tpch.catalog()
        reoptimizer = ReOptimizer()
        query = query_3a()
        tree = bad_tree_for_q3a()
        for _ in range(3):
            reoptimizer.evaluate(tree, SelectivityEstimator(catalog, query))
        assert reoptimizer.invocations == 3

    def test_late_stage_switches_are_suppressed(self, tiny_tpch):
        """Regression: current and alternative costs used to be multiplied by
        the *same* remaining fraction, so progress cancelled out of the switch
        decision and a 90%-done query was exactly as switch-happy as a fresh
        one.  With the sunk-work credit (the alternative is charged stitch-up
        work proportional to the completed fraction), a bad plan is abandoned
        early but kept once most of the inputs have been processed."""
        catalog = tiny_tpch.catalog(with_cardinalities=True)
        reoptimizer = ReOptimizer(switch_threshold=0.8)
        query = query_3a()
        bad = bad_tree_for_q3a()

        fresh = reoptimizer.evaluate(bad, SelectivityEstimator(catalog, query))
        assert fresh.switch, "a fresh bad plan should still be abandoned"

        late = ObservedStatistics()
        for name in query.relations:
            read = int(len(tiny_tpch[name]) * 0.9)
            late.record_source(name, read, read, exhausted=False)
        decision = reoptimizer.evaluate(bad, SelectivityEstimator(catalog, query, late))
        assert 0.02 < decision.remaining_fraction < 0.2
        assert not decision.switch

    def test_observed_statistics_drive_the_recommendation(self, tiny_tpch):
        """An observed explosion in the running join should trigger a switch away."""
        catalog = tiny_tpch.catalog(with_cardinalities=False)
        reoptimizer = ReOptimizer(switch_threshold=0.9)
        query = query_10a()
        current = JoinTree.left_deep(["lineitem", "orders", "customer", "nation"])
        observed = ObservedStatistics()
        # Pretend lineitem ⋈ orders produced far more tuples than expected.
        observed.record_selectivity(["lineitem", "orders"], 0.5)
        observed.record_source("lineitem", 500, 500, False)
        observed.record_source("orders", 500, 500, False)
        decision = reoptimizer.evaluate(
            current, SelectivityEstimator(catalog, query, observed)
        )
        assert decision.recommended_cost <= decision.current_cost


# -- the poll screen --------------------------------------------------------
# Differential: the re-optimizer's poll screen changes nothing a run does.
#
# ``ReOptimizer.poll`` skips the join enumeration where
# ``JoinEnumerator.cost_floor`` proves no switch is possible.  Each case runs
# twice — screened, and with the screen forced open (no floor, so every poll
# enumerates) — and the two runs must switch at the same polls to the same
# trees and agree on answers in row order, work counters, phases,
# ``repr(simulated_seconds)`` and the poll count.

SCREEN_SEEDS = (3, 11, 35, 41, 48)


def observe_polls(monkeypatch, run, forced_open):
    """Run ``run()`` recording every poll's outcome; returns (polls, reports)."""
    polls = []
    poll = ReOptimizer.poll

    def recording(self, *args, **kwargs):
        decision = poll(self, *args, **kwargs)
        switched = decision is not None and decision.switch
        polls.append(str(decision.recommended_tree) if switched else None)
        return decision

    with monkeypatch.context() as patch:
        patch.setattr(ReOptimizer, "poll", recording)
        if forced_open:
            patch.setattr(JoinEnumerator, "cost_floor", lambda self: None)
        reports = run()
    return polls, [
        (
            report.rows,
            report.metrics.as_dict(),
            report.phases,
            repr(report.simulated_seconds),
            report.reoptimizer_polls,
        )
        for report in reports
    ]


def assert_screen_is_invisible(monkeypatch, run):
    screened = observe_polls(monkeypatch, run, forced_open=False)
    opened = observe_polls(monkeypatch, run, forced_open=True)
    assert screened == opened
    return screened[0]


def solo(workload, **options):
    return lambda: [run_solo_corrective(workload, **options)[0]]


@pytest.mark.parametrize("seed", SCREEN_SEEDS)
@pytest.mark.parametrize(
    "engine",
    [
        {},
        {"batch_size": 64, "engine_mode": "compiled"},
        {"batch_size": 64, "engine_mode": "interpreted"},
    ],
    ids=["tuple", "compiled64", "interpreted64"],
)
def test_screen_is_invisible_on_solo_runs(monkeypatch, seed, engine):
    assert_screen_is_invisible(monkeypatch, solo(generate_workload(seed), **engine))


@pytest.mark.parametrize("seed", SCREEN_SEEDS)
def test_screen_is_invisible_on_order_adaptive_runs(monkeypatch, seed):
    workload, sort_attrs = order_workload_variant(generate_workload(seed), "perturbed")
    run = solo(
        workload,
        batch_size=64,
        catalog=order_catalog(workload, sort_attrs, True),
        order_adaptive=True,
    )
    assert_screen_is_invisible(monkeypatch, run)


@pytest.mark.parametrize("seed", SCREEN_SEEDS)
def test_screen_is_invisible_on_rate_adaptive_runs(monkeypatch, seed):
    workload = generate_workload(seed)

    def run():
        catalog, sources = rate_collapse_setup(workload)
        return solo(
            workload, batch_size=64, catalog=catalog, sources=sources, rate_adaptive=True
        )()

    assert_screen_is_invisible(monkeypatch, run)


@pytest.mark.parametrize("order_adaptive", [False, True])
def test_screen_is_invisible_on_paper_queries(monkeypatch, order_adaptive):
    dataset = build_dataset("uniform", 0.003, 0.0, 2004)

    def run():
        return [
            CorrectiveQueryProcessor(
                dataset.catalog_no_statistics.copy(),
                dataset.sources,
                polling_interval_seconds=0.1,
                batch_size=64,
                order_adaptive=order_adaptive,
            ).execute(query, initial_tree=worst_left_deep_tree(query, dataset))
            for query in (query_3a(), query_10a(), query_5())
        ]

    assert_screen_is_invisible(monkeypatch, run)


def test_screen_is_invisible_on_a_sharded_inline_run(monkeypatch):
    workloads = [
        generate_workload(seed, name_prefix=f"w{index}_")
        for index, seed in enumerate(SCREEN_SEEDS)
    ]

    def run():
        report, _ = run_sharded_workloads(
            workloads, workers=1, batch_size=64, start_method="inline"
        )
        return [served.report for served in report.served]

    assert_screen_is_invisible(monkeypatch, run)


def test_screen_cases_both_switch_and_skip(monkeypatch):
    """The differential means something only if the cases above both switch
    plans and skip enumerations."""
    enumerations = []
    evaluate = ReOptimizer.evaluate

    def counting(self, *args, **kwargs):
        enumerations.append(args)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(ReOptimizer, "evaluate", counting)
    polls = []
    for seed in SCREEN_SEEDS:
        polls += assert_screen_is_invisible(monkeypatch, solo(generate_workload(seed)))
    switches = sum(tree is not None for tree in polls)
    assert 0 < switches
    # The forced-open runs enumerate at every one of their len(polls) polls.
    assert len(polls) <= len(enumerations) < 2 * len(polls)
