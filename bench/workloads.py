"""The four workloads.  One op is one *round*: a fixed list of queries over
fixed data, so every round of a workload does identical work and a
percentile over rounds measures the system, not the query mix.

Each workload stresses layers the others leave idle (see ``WHY``); all are
closed-loop with one client.  A workload is built once per process
(:meth:`Workload.__init__` is the measured set-up), then the harness calls
:meth:`Workload.prepare` (outside the timed bracket) and :meth:`Workload.run`
(inside it) once per round.
"""

from __future__ import annotations

import os
import random
import sqlite3
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.core.corrective import CorrectiveExecutionReport, CorrectiveQueryProcessor
from repro.experiments.common import build_dataset
from repro.experiments.corrective import worst_left_deep_tree
from repro.io import (
    CSVFileTransport,
    DBAPITransport,
    Fault,
    FaultPlan,
    HTTPTransport,
    InjectedTransport,
    JSONLinesTransport,
    ResilientSource,
    SimulatedTimeline,
    Transport,
    write_csv,
    write_jsonl,
    write_sqlite,
)
from repro.io.faults import DELAY, OUTAGE, RESET, TRUNCATE
from repro.relational.relation import Relation
from repro.serving.sharded import ShardedQueryServer
from repro.workloads.queries import query_3a, query_5, query_10a

from bench.fixture import FixtureProcess

#: the paper's three expensive queries; every round runs them in this order
QUERY_MAKERS = (query_3a, query_10a, query_5)
POLLING_INTERVAL_S = 0.25
BATCH_SIZE = 64
QUANTUM_TUPLES = 200
#: scale factor of ``--check`` (and of the tier-1 test): seconds, not minutes
CHECK_SCALE_FACTOR = 0.002

#: one line per workload, copied into ``BENCHMARK.json``
WHY = {
    "solo_tuple": (
        "paper-faithful tuple-at-a-time corrective runs from bad plans: engine "
        "step plus core monitor/re-opt/stitch-up do all the work, io and serving none"
    ),
    "solo_compiled": (
        "same queries through compiled batch kernels, re-compiled at each phase "
        "switch: a gain for one engine mode that costs the other shows on this pair"
    ),
    "serve_sharded": (
        "fresh 2-worker server per round, 8 sessions plus a 2-way partitioned "
        "query: only here fork, pickle, queue hand-off, stats fold and merge block"
    ),
    "io_faulted": (
        "every relation behind a retrying envelope over CSV/HTTP/SQLite/JSONL with "
        "seeded faults: io parse/connect/retry/resume dominates, absent elsewhere"
    ),
}


@dataclass
class RoundOutcome:
    """Everything one round produced, gathered after the timed bracket."""

    #: query name and rows of every answer, in submission order
    answers: list[tuple[str, list[tuple]]]
    #: what must repeat exactly from round to round (counters, simulated
    #: seconds, phase counts, envelope telemetry)
    observables: list[Any]
    sim_seconds: float
    source_tuples: int
    #: count-type and report-derived layer metrics of this round
    layer: dict[str, float] = field(default_factory=dict)

    @property
    def queries(self) -> int:
        return len(self.answers)


def same_answer(rows: list[tuple], reference: Counter) -> bool:
    """Multiset equality, tolerating last-digit drift in float aggregates
    (a different join order may sum a group's floats in another order)."""
    if Counter(rows) == reference:
        return True
    expected = sorted(reference.elements(), key=repr)
    actual = sorted(rows, key=repr)
    if len(expected) != len(actual):
        return False
    for left, right in zip(actual, expected):
        if len(left) != len(right):
            return False
        for a, b in zip(left, right):
            if a == b:
                continue
            if not (isinstance(a, float) and isinstance(b, float)):
                return False
            if abs(a - b) > 1e-9 * max(abs(a), abs(b)):
                return False
    return True


def _observables(report: CorrectiveExecutionReport) -> tuple[Any, ...]:
    return (
        tuple(report.metrics.as_dict().items()),
        report.simulated_seconds,
        report.num_phases,
    )


def _source_tuples(report: CorrectiveExecutionReport) -> int:
    return sum(phase.tuples_read for phase in report.phases)


def _layer_counts(reports: list[CorrectiveExecutionReport]) -> dict[str, float]:
    """The count-type layer metrics the execution reports already carry."""
    actions = 0
    for report in reports:
        adaptation = report.details["adaptation"]
        actions += (
            len(adaptation["switches"])
            + int(adaptation["reprioritizations"])
            + len(adaptation["failovers"])
        )
    count = len(reports)
    return {
        "engine.work_units_per_query": sum(r.metrics.work() for r in reports) / count,
        "engine.peak_state_tuples": float(
            max(r.details["peak_state_tuples"] for r in reports)
        ),
        "optimizer.reopt_evaluations": float(sum(r.reoptimizer_polls for r in reports)),
        "core.monitor_polls": float(sum(r.details["monitor_polls"] for r in reports)),
        "core.stitchup_reused_tuples": float(sum(r.reused_tuples for r in reports)),
        "core.stitchup_discarded_tuples": float(
            sum(r.discarded_tuples for r in reports)
        ),
        "core.phases_per_query": sum(r.num_phases for r in reports) / count,
        "adaptivity.actions_fired": float(actions),
    }


def _outcome(
    reports: list[CorrectiveExecutionReport],
    extra_observables: list[Any] | None = None,
) -> RoundOutcome:
    return RoundOutcome(
        answers=[(report.query_name, report.rows) for report in reports],
        observables=[_observables(report) for report in reports]
        + (extra_observables or []),
        sim_seconds=sum(report.simulated_seconds for report in reports),
        source_tuples=sum(_source_tuples(report) for report in reports),
        layer=_layer_counts(reports),
    )


class Workload:
    """Base: generate the data and the oracle answers; subclasses add the
    resources of their path and the round itself."""

    name = ""
    scale_factor = 0.0

    def __init__(self, seed: int, scale_factor: float, workdir: str) -> None:
        started = perf_counter()
        self.dataset = build_dataset("uniform", scale_factor, 0.0, seed)
        self.generate_seconds = perf_counter() - started
        self.queries = [make() for make in QUERY_MAKERS]
        # Reference answers: a solo tuple-at-a-time corrective run over plain
        # local relations from the optimizer's own plan — not the measured path.
        self.oracle: dict[str, Counter] = {}
        for query in self.queries:
            report = CorrectiveQueryProcessor(
                self.dataset.catalog_no_statistics.copy(),
                self.dataset.sources,
                polling_interval_seconds=POLLING_INTERVAL_S,
            ).execute(query)
            self.oracle[query.name] = Counter(report.rows)

    def prepare(self) -> None:
        """Per-round work that must stay outside the timed bracket."""

    def run(self) -> RoundOutcome:
        raise NotImplementedError

    def verify(self, outcome: RoundOutcome) -> bool:
        return all(
            same_answer(rows, self.oracle[name]) for name, rows in outcome.answers
        )

    def child_usage(self) -> dict[str, float]:
        """CPU seconds and peak RSS of children that are still alive (those
        that exited are in ``RUSAGE_CHILDREN`` already)."""
        return {"cpu_s": 0.0, "maxrss_kb": 0.0}

    def close(self) -> None:
        """Stop every process and remove every file the workload made."""


class _SoloWorkload(Workload):
    """Q3A, Q10A, Q5 through ``CorrectiveQueryProcessor.execute``, each from
    the deliberately bad ``worst_left_deep_tree``."""

    engine_options: dict[str, Any] = {}

    def __init__(self, seed: int, scale_factor: float, workdir: str) -> None:
        super().__init__(seed, scale_factor, workdir)
        self.sources: dict[str, Any] = self.dataset.sources
        self.plans = [
            (query, worst_left_deep_tree(query, self.dataset)) for query in self.queries
        ]

    def _execute_all(self) -> list[CorrectiveExecutionReport]:
        return [
            CorrectiveQueryProcessor(
                self.dataset.catalog_no_statistics.copy(),
                self.sources,
                polling_interval_seconds=POLLING_INTERVAL_S,
                **self.engine_options,
            ).execute(query, initial_tree=tree)
            for query, tree in self.plans
        ]

    def run(self) -> RoundOutcome:
        return _outcome(self._execute_all())


class SoloTuple(_SoloWorkload):
    name = "solo_tuple"
    scale_factor = 0.004


class SoloCompiled(_SoloWorkload):
    name = "solo_compiled"
    scale_factor = 0.009
    engine_options = {"engine_mode": "compiled", "batch_size": BATCH_SIZE}


class ServeSharded(Workload):
    """Per round: a fresh two-worker ``ShardedQueryServer`` with a fresh
    statistics cache (rounds must not learn from each other), eight sessions
    cycling the three queries, one two-way partitioned Q3A, ``run()``."""

    name = "serve_sharded"
    scale_factor = 0.0045
    sessions = 8
    workers = 2
    partitions = 2

    def __init__(self, seed: int, scale_factor: float, workdir: str) -> None:
        super().__init__(seed, scale_factor, workdir)
        # Sessions run on private clocks exactly like solo execution, so each
        # one's simulated seconds must equal this solo run's.
        self.solo_sim_seconds = {
            query.name: CorrectiveQueryProcessor(
                self.dataset.catalog_no_statistics.copy(),
                self.dataset.sources,
                polling_interval_seconds=POLLING_INTERVAL_S,
                batch_size=BATCH_SIZE,
                engine_mode="compiled",
            )
            .execute(query, poll_step_limit=QUANTUM_TUPLES)
            .simulated_seconds
            for query in self.queries
        }
        self._solo_matches = True

    def run(self) -> RoundOutcome:
        server = ShardedQueryServer(
            self.dataset.catalog_no_statistics,
            self.dataset.sources,
            workers=self.workers,
            engine_mode="compiled",
            batch_size=BATCH_SIZE,
            quantum_tuples=QUANTUM_TUPLES,
            polling_interval_seconds=POLLING_INTERVAL_S,
        )
        for index in range(self.sessions):
            server.submit(self.queries[index % len(self.queries)])
        server.submit_partitioned(self.queries[0], self.partitions)
        report = server.run()

        served = [entry.report for entry in report.served]
        fragments = [
            fragment.report
            for entry in report.partitioned
            for fragment in entry.fragments
        ]
        self._solo_matches = all(
            entry.simulated_seconds == self.solo_sim_seconds[entry.query_name]
            for entry in served
        )
        walls = [summary.wall_seconds for summary in report.worker_summaries]
        busy = sum(summary.busy_wall_seconds for summary in report.worker_summaries)
        outcome = _outcome(served + fragments)
        # One answer per submission: the fragments' rows count once, merged,
        # and a partitioned query lasts as long as its slowest fragment.
        outcome.answers = [
            (entry.query_name, entry.rows)
            for entry in report.served + report.partitioned
        ]
        outcome.sim_seconds = sum(
            entry.simulated_seconds for entry in served + report.partitioned
        )
        outcome.layer.update(
            {
                "serving.sharded.frontend_overhead_s": report.wall_seconds - max(walls),
                "serving.sharded.slowest_worker_s": max(walls),
                "serving.sharded.worker_busy_ratio": busy / sum(walls),
                "serving.sharded.worker_skew": max(walls) * len(walls) / sum(walls),
            }
        )
        return outcome

    def verify(self, outcome: RoundOutcome) -> bool:
        return self._solo_matches and super().verify(outcome)


#: which real backend serves which relation.  Fixed, because CSV reads a
#: ``date`` column back as text: lineitem's ship date is in no predicate or
#: answer of the three queries, while orders' date is in both.
BACKENDS = {
    "lineitem": "csv",
    "orders": "http",
    "customer": "sqlite",
    "supplier": "jsonl",
    "nation": "http",
    "region": "jsonl",
}
#: every relation gets the same fault *shape*; only the offsets come from
#: the seed, so seeds differ in where a stream breaks, not in how often
FAULT_KINDS = (RESET, TRUNCATE, OUTAGE, DELAY)
FAULT_DELAY_S = 0.002


def fault_plan(seed: int, index: int, row_count: int) -> FaultPlan:
    """One connect flap, then one fault of each kind at seeded offsets."""
    rng = random.Random(f"bench-fault-plan:{seed}:{index}")
    kinds = FAULT_KINDS[: min(len(FAULT_KINDS), row_count)]
    offsets = rng.sample(range(row_count), len(kinds))
    return FaultPlan(
        {
            offset: Fault(
                kind,
                offset,
                seconds=FAULT_DELAY_S if kind == DELAY else 0.0,
                count=1 if kind == OUTAGE else 0,
            )
            for kind, offset in zip(kinds, offsets)
        },
        connect_flaps=1,
    )


#: file backends: how a relation is written and which transport reads it
FILE_BACKENDS = {
    "csv": (write_csv, CSVFileTransport),
    "jsonl": (write_jsonl, JSONLinesTransport),
}


def materialize(
    relations: dict[str, Relation], workdir: str
) -> dict[str, Callable[[], Transport]]:
    """Write every file-backed relation once; returns, per relation, a
    factory of fresh transports over it (HTTP relations are not in it)."""
    factories: dict[str, Callable[[], Transport]] = {}
    for name, relation in relations.items():
        backend = BACKENDS[name]
        path = os.path.join(workdir, f"{name}.{backend}")
        if backend in FILE_BACKENDS:
            write, transport = FILE_BACKENDS[backend]
            write(path, relation)
            factories[name] = lambda t=transport, n=name, p=path, s=relation.schema: (
                t(n, p, s)
            )
        elif backend == "sqlite":
            sql = write_sqlite(path, relation)
            factories[name] = lambda n=name, p=path, q=sql, s=relation.schema: (
                DBAPITransport(n, lambda: sqlite3.connect(p), q, s)
            )
    return factories


class IoFaulted(_SoloWorkload):
    """The three queries, interpreted batches, every relation behind a
    ``ResilientSource`` on the simulated timeline: backoff is accounted, not
    slept, and engine decisions do not depend on wall timing, so rounds
    repeat exactly."""

    name = "io_faulted"
    scale_factor = 0.0015
    engine_options = {"batch_size": BATCH_SIZE}

    def __init__(self, seed: int, scale_factor: float, workdir: str) -> None:
        super().__init__(seed, scale_factor, workdir)
        relations = self.dataset.sources
        self.plans_by_relation = {
            name: fault_plan(seed, index, len(relation.rows))
            for index, (name, relation) in enumerate(sorted(relations.items()))
        }
        self.file_transports = materialize(relations, workdir)
        http = {n: r for n, r in relations.items() if BACKENDS[n] == "http"}
        self.fixture = FixtureProcess(
            http, {name: self.plans_by_relation[name] for name in http}
        )

    def prepare(self) -> None:
        # Fresh fault scripts on both sides: a script fires each fault once.
        self.fixture.rearm()
        sources: dict[str, Any] = {}
        for name, relation in self.dataset.sources.items():
            timeline = SimulatedTimeline()
            if name in self.file_transports:
                transport: Transport = InjectedTransport(
                    self.file_transports[name](),
                    self.plans_by_relation[name],
                    stall=timeline.sleep,
                )
            else:
                transport = HTTPTransport(name, self.fixture.urls[name], relation.schema)
            sources[name] = ResilientSource(transport, timeline=timeline)
        self.sources = sources

    def run(self) -> RoundOutcome:
        reports = self._execute_all()
        telemetry: Counter = Counter()
        for source in self.sources.values():
            telemetry.update(source.telemetry.as_dict())
        outcome = _outcome(reports, [tuple(sorted(telemetry.items()))])
        outcome.layer.update(
            {
                "io.envelope.connects": telemetry["connects"],
                "io.envelope.connect_retries": telemetry["connect_retries"],
                "io.envelope.read_faults": telemetry["read_faults"],
                "io.envelope.resumes": telemetry["resumes"],
                "io.envelope.rows_delivered": telemetry["rows_delivered"],
                "io.envelope.backoff_sim_s": telemetry["backoff_seconds"],
            }
        )
        return outcome

    def verify(self, outcome: RoundOutcome) -> bool:
        faulted = (
            outcome.layer["io.envelope.resumes"] >= 1
            and outcome.layer["io.envelope.connect_retries"] >= 1
        )
        return faulted and super().verify(outcome)

    def child_usage(self) -> dict[str, float]:
        return self.fixture.usage()

    def close(self) -> None:
        self.fixture.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SoloTuple, SoloCompiled, ServeSharded, IoFaulted)
}
