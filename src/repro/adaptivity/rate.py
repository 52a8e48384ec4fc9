"""Source-rate adaptivity: react when a source's delivery collapses.

The paper's thesis covers *all* source properties — content statistics,
ordering, and arrival rates.  This policy closes the third gap: it watches
the per-source :class:`~repro.adaptivity.events.SourceRateEvent` telemetry
and reacts when a source delivers far fewer tuples than its catalog promise
(``promised_rate`` on :class:`~repro.relational.catalog.TableStatistics`)
says it should have by now.

Two actions:

* **Read re-prioritization** — demote the collapsed source in the
  water-filling read schedule (restore it when the rate recovers).  Among
  *available* tuples the engine then drains healthy sources first, so the
  partitions a soon-to-be-abandoned plan accumulates for the collapsed
  source stay small, keeping the eventual stitch-up cheap.

* **Rate-aware plan switching** — propose a switch to a tree that *gates*
  the expensive joins behind the collapsed source.  The work-only
  re-optimizer cannot see this opportunity: two trees of near-equal total
  work can differ hugely in *completion time*, because work that does not
  depend on the collapsed source's tuples is masked by the arrival stall
  (the engine computes while it waits), while work downstream of the
  collapsed source serializes after its arrivals.  The policy therefore
  scores every candidate tree by its **exposed work** — the part of its
  completion time the arrival window cannot absorb::

      exposed(tree) ≈ max(ungated_work − T_R, 0) + gated_work

  where ``T_R`` is the estimated remaining arrival window of the collapsed
  source (its unread tuples at its *observed* rate, at least its current
  stall), ``gated_work`` is the cost attributable to that source's stream
  (its reads, its side of every join node containing it, and those nodes'
  outputs), and ``ungated_work`` is everything else — chargeable while
  waiting.  When the window dwarfs the work this degenerates to comparing
  gated work (the only part that serializes after the last arrival); when
  the window is negligible it degenerates to the plain total-work
  comparison.  A switch is proposed when the best candidate's exposed work
  beats the running tree's by ``SourceRatePolicy.SWITCH_THRESHOLD``.

Answers are never affected: plan switches are stitched up across phases and
re-prioritization only reorders reads (the rate differential suite pins
result multisets against the oracle).
"""

from __future__ import annotations

from repro.engine.cost import CostModel
from repro.optimizer.enumerator import JoinEnumerator
from repro.optimizer.exposure import (
    MAX_REMAINING_SECONDS,
    gating_tree,
    remaining_fraction,
    split_remaining_cost,
)
from repro.optimizer.plans import JoinTree

from repro.adaptivity.controller import (
    AdaptationContext,
    AdaptationRun,
    ReprioritizeReadsAction,
    SwitchPlanAction,
)
from repro.adaptivity.events import (
    SourceRateEvent,
    event_collapsed,
    promised_rate_of,
)
from repro.adaptivity.policies import AdaptationPolicy

#: estimated work units to assemble one cross-phase result row during
#: stitch-up (probes into registered partitions plus materialization) —
#: the price a mid-flight switch pays per output that can no longer be
#: produced in-phase
STITCH_UNITS_PER_OUTPUT = 4.0


class SourceRatePolicy(AdaptationPolicy):
    """Adapt the read schedule and the plan to collapsed source rates."""

    name = "source_rate"

    #: propose a plan switch only when the best candidate's estimated
    #: *exposed work* (the module docstring's completion-time residue) is
    #: below this fraction of the running tree's — the re-optimizer's
    #: default threshold, over exposed seconds instead of total work
    SWITCH_THRESHOLD = 0.8

    def __init__(self, catalog, cost_model: CostModel | None = None) -> None:
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()

    # -- telemetry ------------------------------------------------------------------

    #: how many recent polls the windowed delivery-rate estimate spans
    RATE_WINDOW_POLLS = 4

    def observe(self, run: AdaptationRun, event: SourceRateEvent) -> None:
        state = run.scratch(self)
        state.setdefault("telemetry", {})[event.relation] = event
        history = state.setdefault("history", {}).setdefault(event.relation, [])
        if not history:
            seeded = self._seed_history_sample(run, event)
            if seeded is not None:
                history.append(seeded)
        history.append((event.simulated_seconds, event.delivered))
        if len(history) > self.RATE_WINDOW_POLLS:
            del history[0]

    def _seed_history_sample(
        self, run: AdaptationRun, event: SourceRateEvent
    ) -> tuple[float, int] | None:
        """Backfill one pre-poll sample so the windowed rate engages at poll 1.

        With fewer than two samples the windowed estimate is unmeasurable
        and the remaining-window estimate falls back to the *cumulative*
        rate ``delivered / now`` — which averages a collapsed source's
        healthy opening burst into its post-collapse trickle, over-stating
        delivery and delaying the switch by a poll.  When the cursor can
        replay its delivered count at an earlier instant (remote sources
        bisect their cached arrival schedule) the window is seeded with a
        recent synthetic sample instead, one ``RATE_WINDOW_POLLS``-th of the
        elapsed time back.
        """
        now = event.simulated_seconds
        if now <= 0.0:
            return None
        cursor = run.cursors.get(event.relation)
        oracle = getattr(cursor, "arrived_by", None)
        if oracle is None:
            return None
        t_prev = now * (1.0 - 1.0 / self.RATE_WINDOW_POLLS)
        if not t_prev < now:
            return None
        # Clamp at the current delivered count so history stays non-decreasing
        # even when consumption (a lower bound the oracle cannot see) leads.
        return (t_prev, min(oracle(t_prev), event.delivered))

    def _recent_rate(self, run: AdaptationRun, relation: str) -> float | None:
        """Delivery rate over the last few polls (None when unmeasurable).

        A collapsed source that *was* healthy keeps a high cumulative
        average for a long time; the windowed rate is what exposes an
        outage (and a recovery) promptly.
        """
        history = run.scratch(self).get("history", {}).get(relation, [])
        if len(history) < 2:
            return None
        (t0, d0), (t1, d1) = history[0], history[-1]
        if t1 <= t0:
            return None
        return max(d1 - d0, 0) / (t1 - t0)

    def _collapsed(self, event: SourceRateEvent) -> bool:
        """Has this source fallen decisively behind its promised rate?"""
        return not event.exhausted and event_collapsed(event, self.catalog)

    # -- the decision ----------------------------------------------------------------

    def decide(self, run: AdaptationRun, context: AdaptationContext):
        state = run.scratch(self)
        telemetry: dict[str, SourceRateEvent] = state.get("telemetry", {})
        if not telemetry:
            return None
        collapsed = {
            relation: event
            for relation, event in telemetry.items()
            if relation in context.query.relations and self._collapsed(event)
        }
        actions = []
        # Only this query's relations belong in the priority map: telemetry
        # can cover foreign relations (shared monitors under serving pools),
        # and leaking them into ReprioritizeReadsAction.priorities would
        # inflate reprioritization counts with entries no read schedule uses.
        priorities = {
            relation: (1 if relation in collapsed else 0)
            for relation in telemetry
            if relation in context.query.relations
        }
        changed = {
            relation: priority
            for relation, priority in priorities.items()
            if run.read_priorities.get(relation, 0) != priority
        }
        if changed:
            actions.append(
                ReprioritizeReadsAction(
                    priorities,
                    reason=(
                        f"rate policy demoted {sorted(collapsed)} in the read "
                        f"schedule" if collapsed else
                        "rate policy restored recovered sources"
                    ),
                    policy=self.name,
                )
            )
        if collapsed:
            switch = self._propose_switch(run, context, collapsed)
            if switch is not None:
                actions.append(switch)
        return actions or None

    def _propose_switch(
        self,
        run: AdaptationRun,
        context: AdaptationContext,
        collapsed: dict[str, SourceRateEvent],
    ) -> SwitchPlanAction | None:
        query = context.query
        if len(query.relations) < 2:
            return None
        estimator = context.estimator
        enumerator = JoinEnumerator(query, estimator, self.cost_model)

        # The binding constraint is the source whose remaining data takes
        # longest to arrive; gate the plan behind that one.
        def remaining_seconds(relation: str) -> float:
            event = collapsed[relation]
            now = max(event.simulated_seconds, 1.0e-9)
            delivered = event.delivered
            remaining = max(
                estimator.base_cardinality(relation) - delivered, 0.0
            )
            rate = self._recent_rate(run, relation)
            if rate is None:
                rate = delivered / now
            if rate <= 0:
                window = MAX_REMAINING_SECONDS
            else:
                window = min(remaining / rate, MAX_REMAINING_SECONDS)
            # stall_seconds is conservative (``inf``) for a live stream with
            # no scheduled arrival; keep the comparison finite.
            return min(max(window, event.stall_seconds), MAX_REMAINING_SECONDS)

        acted = run.scratch(self).setdefault("acted", set())
        eligible = {
            relation: event
            for relation, event in collapsed.items()
            if relation not in acted
        }
        if not eligible:
            return None
        slow = max(
            eligible, key=lambda relation: (remaining_seconds(relation), relation)
        )
        window = remaining_seconds(slow)

        # The policy only ever proposes the tree that gates the collapsed
        # source at the top — re-litigating the join order on cost grounds is
        # the plan-switch policy's job, and mixing the two objectives invites
        # oscillation (gate, then "cheap" un-gate, then gate again, each
        # paying a stitch-up).
        gating = gating_tree(query, enumerator, slow)
        if gating is None:
            return None
        current_key = str(context.current_tree)
        gating_key = str(gating)
        if gating_key == current_key:
            return None

        spu = self.cost_model.seconds_per_unit

        def exposed_seconds(tree: JoinTree, switching: bool) -> float:
            gated, ungated = split_remaining_cost(
                query, tree, estimator, slow, context.observed, self.cost_model
            )
            exposed = max(ungated * spu - window, 0.0) + gated * spu
            if switching:
                # Switching strands the current phase's partitions: every
                # result row combining old-phase with new-phase data must be
                # assembled by stitch-up instead of in-phase.  Estimated as
                # the cross-phase share of the final output (1 minus the
                # product of unconsumed fractions) — this is what makes the
                # policy *decline* to switch once too much is sunk.
                fraction = 1.0
                for name in query.relations:
                    fraction *= remaining_fraction(estimator, context.observed, name)
                cross_outputs = estimator.estimate_cardinality(
                    frozenset(query.relations)
                ) * (1.0 - fraction)
                exposed += cross_outputs * STITCH_UNITS_PER_OUTPUT * spu
            return exposed

        scored = {
            current_key: exposed_seconds(context.current_tree, switching=False),
            gating_key: exposed_seconds(gating, switching=True),
        }
        if scored[current_key] <= 0.0:
            return None
        if scored[gating_key] >= self.SWITCH_THRESHOLD * scored[current_key]:
            return None
        acted.add(slow)
        event = collapsed[slow]
        rate = event.delivered / max(event.simulated_seconds, 1.0e-9)
        promised = promised_rate_of(event, self.catalog)
        return SwitchPlanAction(
            tree=gating,
            reason=(
                f"source-rate policy: {slow} delivered {rate:.0f} tuples/s "
                f"against a promise of {promised:.0f}; switching cuts exposed "
                f"work from {scored[current_key]:.2f}s to "
                f"{scored[gating_key]:.2f}s by gating joins behind its arrivals"
            ),
            improvement=max(
                0.0, 1.0 - scored[gating_key] / max(scored[current_key], 1e-12)
            ),
            policy=self.name,
        )

