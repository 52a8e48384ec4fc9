"""Regression tests for three telemetry bugs in the source-rate policy.

Each test fails on the pre-fix code:

* ``decide`` built its read-priority map from **every** relation the
  telemetry had seen — under serving pools the scratch telemetry can cover
  relations foreign to the current query, and those leaked into
  ``ReprioritizeReadsAction.priorities`` (inflating reprioritization counts
  with entries no read schedule uses).
* ``SourceRateEvent.stall_seconds`` returned ``0.0`` whenever
  ``next_arrival`` was ``None`` — reporting a *mid-outage* source (live
  stream, no schedulable arrival) as instantly ready, exactly the source a
  stall guard exists for.  Only an **exhausted** stream stalls nothing.
* with fewer than two rate polls, the remaining-window estimate fell back
  to the cumulative rate ``delivered / now``, which averages a collapsed
  source's healthy opening burst into its trickle and over-states delivery
  on a source that collapsed right at t0; the window history is now seeded
  from the cursor's delivery oracle at the first event.
"""

from __future__ import annotations

import math

import pytest

from repro.adaptivity import (
    AdaptationContext,
    AdaptationController,
    ReprioritizeReadsAction,
    SourceRatePolicy,
)
from repro.adaptivity.events import SourceRateEvent
from repro.optimizer.statistics import SelectivityEstimator
from workload_generator import generate_workload


def _workload_with_joins(start_seed: int):
    seed = start_seed
    while True:
        workload = generate_workload(seed)
        if len(workload.query.relations) >= 2:
            return workload
        seed += 1


def _event(**overrides) -> SourceRateEvent:
    base = dict(
        phase_id=0,
        simulated_seconds=1.0,
        relation="f",
        consumed=10,
        next_arrival=None,
        exhausted=False,
        promised_rate=1000.0,
        arrived=10,
    )
    base.update(overrides)
    return SourceRateEvent(**base)


class TestForeignRelationPriorityLeak:
    def test_priorities_cover_only_the_querys_relations(self):
        """Telemetry about a foreign relation must never reach priorities.

        The scratch telemetry is fed one event per relation the monitor has
        ever reported — here the query's own relations plus a foreign one
        (as happens when policy state outlives a query under serving).  Any
        ReprioritizeReadsAction the policy proposes must be restricted to
        the current query's relations.
        """
        workload = _workload_with_joins(5100)
        query = workload.query
        catalog = workload.catalog()
        policy = SourceRatePolicy(catalog)
        controller = AdaptationController([policy])
        run = controller.begin(query, catalog)

        collapsed_relation = query.relations[0]
        healthy_relation = query.relations[-1]
        # A collapsed relation of this query (forces an action), a healthy
        # one (populates telemetry), and a collapsed *foreign* relation.
        policy.observe(
            run, _event(relation=collapsed_relation, consumed=5, arrived=5)
        )
        policy.observe(
            run,
            _event(
                relation=healthy_relation,
                consumed=900,
                arrived=900,
                next_arrival=1.0,
            ),
        )
        policy.observe(
            run, _event(relation="zz_foreign_relation", consumed=3, arrived=3)
        )

        context = AdaptationContext(
            query=query,
            observed=None,
            now=1.0,
            current_tree=None,
            current_strategies=None,
            estimator=SelectivityEstimator(catalog, query),
            ordering=None,
        )
        actions = policy.decide(run, context)
        assert actions is not None, "a collapsed own-relation must trigger actions"
        reprioritizations = [
            action for action in actions if isinstance(action, ReprioritizeReadsAction)
        ]
        assert reprioritizations, "expected a read re-prioritization"
        for action in reprioritizations:
            assert set(action.priorities) <= set(query.relations), (
                f"foreign relations leaked into the priority map: "
                f"{sorted(set(action.priorities) - set(query.relations))}"
            )
        assert any(
            action.priorities.get(collapsed_relation) == 1
            for action in reprioritizations
        )


class TestStallSecondsAmbiguity:
    def test_exhausted_stream_stalls_nothing(self):
        event = _event(exhausted=True, next_arrival=None)
        assert event.stall_seconds == 0.0

    def test_live_stream_without_schedule_is_an_unbounded_stall(self):
        """Mid-outage (live, no schedulable arrival) must not read as ready."""
        event = _event(exhausted=False, next_arrival=None)
        assert math.isinf(event.stall_seconds), (
            "a live stream with no scheduled arrival reported stall 0.0 — "
            "the stalled source a rate guard exists for read as instantly ready"
        )

    def test_scheduled_arrival_still_measures_normally(self):
        event = _event(next_arrival=3.25, simulated_seconds=1.0)
        assert event.stall_seconds == pytest.approx(2.25)
        past = _event(next_arrival=0.5, simulated_seconds=1.0)
        assert past.stall_seconds == 0.0


class TestCollapseAtT0Window:
    def test_first_event_seeds_the_rate_window_from_the_delivery_oracle(self):
        """A single poll must already yield a *windowed* rate estimate.

        Scenario: a source bursts 100 tuples early, then collapses to a
        trickle; the first rate poll lands at t=1.0 with 102 delivered.  The
        cumulative rate (102 t/s) wildly over-states the post-collapse
        delivery; the delivery oracle knows 100 tuples had already arrived
        by t=0.75, so the recent rate is 2 / 0.25 = 8 t/s.  Pre-fix, one
        poll meant no windowed estimate at all (falling back to the
        cumulative rate downstream).
        """
        workload = _workload_with_joins(5200)
        query = workload.query
        catalog = workload.catalog()
        relation = query.relations[0]

        class OracleCursor:
            consumed = 102

            @staticmethod
            def arrived_by(now: float) -> int:
                return 100 if now < 0.99 else 102

        policy = SourceRatePolicy(catalog)
        controller = AdaptationController([policy])
        run = controller.begin(query, catalog, cursors={relation: OracleCursor()})

        policy.observe(
            run,
            _event(relation=relation, simulated_seconds=1.0, consumed=102, arrived=102),
        )
        history = run.scratch(policy)["history"][relation]
        assert len(history) == 2, (
            "the first event must seed a synthetic earlier sample from the "
            "cursor's delivery oracle"
        )
        assert history[0] == (pytest.approx(0.75), 100)
        rate = policy._recent_rate(run, relation)
        assert rate is not None, (
            "one poll left the windowed rate unmeasurable — the remaining-"
            "window estimate falls back to the cumulative delivered/now, "
            "over-stating a source that collapsed at t0"
        )
        assert rate == pytest.approx(8.0)

    def test_seed_is_clamped_and_skipped_without_an_oracle(self):
        workload = _workload_with_joins(5200)
        query = workload.query
        catalog = workload.catalog()
        relation = query.relations[0]
        policy = SourceRatePolicy(catalog)
        controller = AdaptationController([policy])
        # No cursor → no oracle → no synthetic sample (and no crash).
        run = controller.begin(query, catalog)
        policy.observe(run, _event(relation=relation, simulated_seconds=1.0))
        assert len(run.scratch(policy)["history"][relation]) == 1
        # t=0 → nothing to backfill.
        run2 = controller.begin(query, catalog)
        policy.observe(run2, _event(relation=relation, simulated_seconds=0.0))
        assert len(run2.scratch(policy)["history"][relation]) == 1
