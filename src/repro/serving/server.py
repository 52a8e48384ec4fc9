"""The multi-query serving layer: N concurrent queries, one simulated clock.

This is the first layer that makes the reproduction a *server* rather than a
one-shot experiment harness.  A :class:`QueryServer` admits SPJA queries over
a shared catalog / source pool and interleaves their corrective (pipelined,
optionally batched) executions quantum by quantum on one shared
:class:`~repro.engine.cost.SimulatedClock`:

* a **scheduling policy** (round-robin or shortest-remaining-cost, see
  :mod:`repro.serving.scheduler`) picks which *ready* session runs next — a
  session waiting on a remote source's next burst drops out of the ready set,
  so its I/O stall is overlapped with other queries' computation, the
  multi-query generalization of the paper's data-availability-driven
  scheduling;
* every query referencing a source shares the **same source object** (and
  for :class:`~repro.sources.remote.RemoteSource` the same cached arrival
  schedule), each with its own sequential cursor — the shared source pool of
  adaptive federated processing;
* a :class:`~repro.serving.stats_cache.SharedStatisticsCache` carries what
  each finished query's monitor learned (selectivities, multiplicative-join
  flags, exact cardinalities of exhausted sources) into the optimizer and
  re-optimizer of every later query.

Correctness bar: interleaving changes *when* each query polls its
re-optimizer and which plans it runs through, but never its answer — each
query's result multiset is identical to a solo run of the same query
(enforced by the serving-vs-solo differential tests).
"""

from __future__ import annotations

from collections.abc import Iterable, Sized
from dataclasses import dataclass, field
from typing import Any

from repro.adaptivity import (
    AdaptationController,
    AdaptationPolicy,
    RateOutlookPolicy,
    SharedLearningPolicy,
)
from repro.core.corrective import CorrectiveExecutionReport, CorrectiveQueryProcessor
from repro.core.options import ProcessorOptions, resolve_options
from repro.engine.collector import collector_paused
from repro.engine.cost import CostModel, SimulatedClock
from repro.optimizer.plans import JoinTree
from repro.relational.algebra import SPJAQuery
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.serving.scheduler import SchedulingPolicy, make_policy
from repro.serving.session import QuerySession
from repro.serving.stats_cache import SharedStatisticsCache


@dataclass
class ServedQuery:
    """One completed query: identity, timing, and its execution report."""

    label: str
    query_name: str
    admitted_at: float
    started_at: float
    finished_at: float
    quanta: int
    report: CorrectiveExecutionReport

    @property
    def latency(self) -> float:
        """Admission-to-completion simulated seconds on the shared clock."""
        return self.finished_at - self.admitted_at

    @property
    def rows(self) -> list[tuple[object, ...]]:
        return self.report.rows

    @property
    def schema(self) -> Schema:
        return self.report.schema

    @property
    def phases(self) -> int:
        return self.report.num_phases

    def summary(self) -> dict[str, object]:
        return {
            "label": self.label,
            "query": self.query_name,
            "admitted": round(self.admitted_at, 3),
            "finished": round(self.finished_at, 3),
            "latency_seconds": round(self.latency, 3),
            "phases": self.phases,
            "quanta": self.quanta,
            "answers": len(self.rows),
        }


@dataclass
class ServingReport:
    """Everything one serving run produced."""

    policy: str
    batch_size: int | None
    quantum_tuples: int
    served: list[ServedQuery]
    makespan: float
    total_quanta: int
    clock_wait_seconds: float
    source_opens: dict[str, int] = field(default_factory=dict)
    stats_cache_summary: dict[str, int] = field(default_factory=dict)
    #: labels of sessions whose activation admission backpressure deferred
    #: at least once (empty when the knob is off or the pool stayed healthy)
    backpressure_deferred: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.served)


#: The :class:`ProcessorOptions` constructor under its former name, kept for
#: the benchmark's pickle probe.
corrective_processor_options = ProcessorOptions


class QueryServer:
    """Admit N concurrent SPJA queries and serve them on one shared clock."""

    def __init__(
        self,
        catalog: Catalog,
        sources: dict[str, object],
        cost_model: CostModel | None = None,
        policy: str | SchedulingPolicy = "round_robin",
        quantum_tuples: int = 200,
        stats_cache: SharedStatisticsCache | None = None,
        share_statistics: bool = True,
        admission_backpressure: bool = False,
        rate_seeded_plans: bool = False,
        session_policies: tuple[AdaptationPolicy, ...] = (),
        options: ProcessorOptions | None = None,
        **knobs: Any,
    ) -> None:
        """``quantum_tuples`` is the scheduling granularity: how many source
        tuples one grant may process before control returns to the scheduler
        (it doubles as each session's re-optimization ``poll_step_limit``).
        ``share_statistics=False`` disables cross-query seeding while keeping
        the cache's learning (useful for ablations).  Orderings an
        order-adaptive session discovers travel through the shared
        statistics cache, so later queries can start on merge joins.
        ``admission_backpressure=True`` defers *activating* a due session
        while a source it reads is collapsed (delivery decisively below its
        promise, judged from the cache's rate telemetry): healthy sessions
        run first and the flaky session stops contending for quanta it
        would only spend waiting.  A deferred session is force-admitted the
        moment it would hold the only runnable slot, so backpressure can
        starve nobody.
        ``rate_seeded_plans=True`` registers a
        :class:`~repro.adaptivity.rate.RateOutlookPolicy` with every session:
        repeat queries over a source the cache knows is slow get an initial
        plan that gates joins behind that source's arrivals.
        ``session_policies`` are extra adaptation policies registered with
        every session's controller — the serving-side extension point for
        new adaptive behaviours (no server change needed to add one).
        ``options`` and the keyword ``knobs`` are every session's
        :class:`~repro.core.options.ProcessorOptions` (compiled sessions
        recompile per phase exactly as in solo execution).
        """
        if quantum_tuples < 1:
            raise ValueError("quantum_tuples must be positive")
        self.options = resolve_options(options, knobs)
        # The server owns a private catalog copy: learned statistics are
        # published into it between sessions without mutating the caller's.
        self.catalog = catalog.copy()
        self.sources = dict(sources)
        self.cost_model = cost_model or CostModel()
        self.policy = make_policy(policy)
        self.quantum_tuples = quantum_tuples
        self.stats_cache = stats_cache or SharedStatisticsCache()
        self.share_statistics = share_statistics
        self.admission_backpressure = admission_backpressure
        self.rate_seeded_plans = rate_seeded_plans
        self.session_policies = tuple(session_policies)
        self._deferred_labels: list[str] = []
        # Cross-query adaptation: the shared-learning policy owns every
        # interaction with the statistics cache; the serving loop only talks
        # to this controller (session_starting / session_finished).
        self.adaptation = AdaptationController(
            [SharedLearningPolicy(self.stats_cache, share_statistics=share_statistics)]
        )
        self.clock = SimulatedClock(self.cost_model)
        self._sessions: list[QuerySession] = []
        self._turn = 0
        self._ran = False

    # -- admission ---------------------------------------------------------------

    def submit(
        self,
        query: SPJAQuery,
        admit_at: float = 0.0,
        initial_tree: JoinTree | None = None,
        label: str | None = None,
    ) -> str:
        """Admit ``query`` at simulated time ``admit_at``; returns its label.

        Labels are unique per session (several instances of the same query
        may be in flight at once).  ``initial_tree`` overrides the
        optimizer's initial plan choice, as in the solo corrective API.
        """
        if self._ran:
            raise RuntimeError("this server has already run; build a new one")
        missing = [name for name in query.relations if name not in self.sources]
        if missing:
            raise KeyError(f"query references unregistered sources: {missing}")
        if admit_at < 0:
            raise ValueError("admit_at must be non-negative")
        index = len(self._sessions)
        session_label = label or f"q{index}:{query.name}"
        if any(session.label == session_label for session in self._sessions):
            session_label = f"{session_label}#{index}"
        processor = CorrectiveQueryProcessor(
            self.catalog, self.sources, self.cost_model, self.options
        )
        for policy in self.session_policies:
            processor.adaptation.register(policy)
        if self.rate_seeded_plans:
            processor.adaptation.register(RateOutlookPolicy(self.stats_cache))
        self._sessions.append(
            QuerySession(
                index=index,
                label=session_label,
                query=query,
                processor=processor,
                catalog=self.catalog,
                admit_at=admit_at,
                initial_tree=initial_tree,
                quantum_tuples=self.quantum_tuples,
            )
        )
        return session_label

    # -- serving loop ------------------------------------------------------------

    @collector_paused()
    def run(self) -> ServingReport:
        """Serve every admitted query to completion; returns the report."""
        if self._ran:
            raise RuntimeError("this server has already run; build a new one")
        self._ran = True
        self._prime_sources()
        # Snapshot shared sources' lifetime open counters so the report shows
        # the connection load of *this* run, not of prior solo/serving runs
        # over the same source objects.
        opens_before: dict[str, int] = {
            name: getattr(source, "open_count")
            for name, source in self.sources.items()
            if hasattr(source, "open_count")
        }
        clock = self.clock
        started_now = clock.now
        pending = sorted(self._sessions, key=lambda s: (s.admit_at, s.index))
        active: list[QuerySession] = []
        finished: list[QuerySession] = []

        while pending or active:
            # Admit sessions whose arrival time has come.  Activation runs
            # the initial optimization against the catalog as of *now*, so
            # later arrivals see every statistic learned so far.  Under
            # admission backpressure a due session over a collapsed source
            # is skipped (it stays in ``pending``) while healthy due
            # sessions behind it activate; without the knob every due
            # session admits unconditionally, exactly as before.
            deferred: list[QuerySession] = []
            progressed = True
            while progressed:
                progressed = False
                for session in pending:
                    if session.admit_at > clock.now:
                        break
                    if session in deferred:
                        continue
                    reason = self._admission_deferral(session)
                    if reason is not None:
                        deferred.append(session)
                        if session.label not in self._deferred_labels:
                            self._deferred_labels.append(session.label)
                        continue
                    pending.remove(session)
                    self._activate(session)
                    (finished if session.state is session.DONE else active).append(
                        session
                    )
                    # Activation charges optimizer work on the shared clock,
                    # which may make more sessions due: rescan from the head.
                    progressed = True
                    break
            if not active and deferred:
                # Deadlock guard: a deferred session must never hold the
                # only runnable slot.  With nothing else to overlap, holding
                # it back buys nothing — admit the earliest one and let it
                # run (its collapsed source is then the rate/failover
                # policies' problem, not admission's).
                session = deferred[0]
                pending.remove(session)
                self._activate(session)
                (finished if session.state is session.DONE else active).append(session)
                continue
            if not active:
                if pending:
                    clock.wait_until(pending[0].admit_at)
                continue

            ready = [session for session in active if session.is_ready(clock.now)]
            if not ready:
                # Every active session is waiting on a future source arrival:
                # advance the shared clock to the earliest of them (or to the
                # next *future* admission, whichever comes first) — simulated
                # I/O wait that no runnable computation could overlap.
                # Deferred sessions' past admit times are not wait targets
                # (waiting for a past instant would freeze the clock); their
                # admission is re-evaluated on every pass.
                targets = [
                    arrival
                    for arrival in (session.next_arrival() for session in active)
                    if arrival is not None
                ]
                future_admits = [
                    session.admit_at
                    for session in pending
                    if session.admit_at > clock.now
                ]
                if future_admits:
                    targets.append(future_admits[0])
                clock.wait_until(min(targets))
                continue

            session = self.policy.pick(ready, clock.now)
            session.last_granted_turn = self._turn
            self._turn += 1
            if session.grant():
                session.finished_at = clock.now
                active.remove(session)
                finished.append(session)
                self._absorb(session)

        finished.sort(key=lambda session: session.index)
        served: list[ServedQuery] = []
        for session in finished:
            # A finished session always carries its timing and report.
            assert session.started_at is not None
            assert session.finished_at is not None
            assert session.report is not None
            served.append(
                ServedQuery(
                    label=session.label,
                    query_name=session.query.name,
                    admitted_at=session.admit_at,
                    started_at=session.started_at,
                    finished_at=session.finished_at,
                    quanta=session.quanta,
                    report=session.report,
                )
            )
        return ServingReport(
            policy=self.policy.name,
            batch_size=self.options.batch_size,
            quantum_tuples=self.quantum_tuples,
            served=served,
            makespan=clock.now - started_now,
            total_quanta=self._turn,
            clock_wait_seconds=clock.wait_time,
            source_opens={
                name: getattr(source, "open_count") - opens_before[name]
                for name, source in self.sources.items()
                if hasattr(source, "open_count")
            },
            stats_cache_summary=self.stats_cache.summary(),
            backpressure_deferred=list(self._deferred_labels),
        )

    # -- internals ---------------------------------------------------------------

    def _prime_sources(self) -> None:
        """Materialize every remote source's arrival schedule up front.

        All sessions reading a source then share one schedule by
        construction, regardless of which session's cursor opens it first.
        """
        for source in self.sources.values():
            prime = getattr(source, "prime", None)
            if callable(prime):
                prime()

    def _record_rate_telemetry(self, relations: Iterable[str]) -> None:
        """Sample the named sources' delivered counts into the stats cache.

        No-op unless a consumer is on (backpressure / rate-seeded plans):
        the samples exist for admission decisions and initial plan choice,
        and recording them unconditionally would churn the cache summary of
        configurations that never read them.
        """
        if not (self.admission_backpressure or self.rate_seeded_plans):
            return
        now = self.clock.now
        for relation in relations:
            source = self.sources.get(relation)
            arrived_by = getattr(source, "arrived_by", None)
            if arrived_by is None:
                continue
            self.stats_cache.record_rate_sample(
                relation,
                now,
                arrived_by(now),
                promised_rate=getattr(source, "promised_rate", None),
                total=len(source) if isinstance(source, Sized) else None,
            )

    def _admission_deferral(self, session: QuerySession) -> str | None:
        """Why activation of a due session should wait (``None`` = admit).

        Admission backpressure: when recent telemetry shows a source the
        session reads delivering decisively below its promise, the session
        would mostly occupy scheduler slots waiting on that source's
        trickle.  Deferring it keeps the quanta with healthy sessions; the
        serving loop re-evaluates on every pass and force-admits the moment
        the deferred session is the only runnable work.
        """
        if not self.admission_backpressure:
            return None
        self._record_rate_telemetry(session.query.relations)
        outlook = self.stats_cache.rate_outlook(session.query.relations)
        if not outlook:
            return None
        worst = max(outlook, key=lambda name: (outlook[name], name))
        return (
            f"{worst} collapsed: ~{outlook[worst]:.3f}s of arrivals outstanding"
        )

    def _activate(self, session: QuerySession) -> None:
        self._record_rate_telemetry(session.query.relations)
        seed = self.adaptation.session_starting(session.query, self.catalog)
        session.start(self.clock, seed_statistics=seed)
        if session.state is session.DONE:  # pragma: no cover - defensive
            session.finished_at = self.clock.now
            self._absorb(session)

    def _absorb(self, session: QuerySession) -> None:
        """Let the cross-query policies absorb a finished session's learning."""
        self._record_rate_telemetry(session.query.relations)
        self.adaptation.session_finished(session.report, self.catalog)
