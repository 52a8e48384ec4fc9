"""The measuring loop: set-up, warm-up, timed rounds, the homogeneity guard,
resource accounting, and the per-layer view of a traced run.

Importing this module imports ``repro``; the runner starts the set-up timer
first so that the import cost is part of ``setup_s``.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from bench.host import WORK_ROOT, kernel, speed_correction
from bench.metrics import LAYERS
from bench.trace import ROUND_SPAN, Tracer
from bench.workloads import WORKLOADS, RoundOutcome, Workload

WARMUP_ROUNDS = 3
#: p75 needs ten samples beyond it, so a run never measures fewer rounds
MIN_ROUNDS = 40


def _resources(workload: Workload) -> tuple[float, float]:
    """``(cpu seconds, peak RSS in MB)`` of this process and all its children:
    exited ones from ``RUSAGE_CHILDREN``, live ones asked directly."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    exited = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = workload.child_usage()
    cpu = (
        own.ru_utime + own.ru_stime + exited.ru_utime + exited.ru_stime + live["cpu_s"]
    )
    peak_kb = max(own.ru_maxrss, exited.ru_maxrss, live["maxrss_kb"])
    return cpu, peak_kb / 1024.0


@dataclass
class Measured:
    """The timed rounds of one phase (untraced or traced) of a run."""

    #: per good round: wall seconds as measured, the host-speed correction
    #: of that moment, and CPU seconds as measured
    raw_walls: list[float] = field(default_factory=list)
    corrections: list[float] = field(default_factory=list)
    raw_cpus: list[float] = field(default_factory=list)
    #: what one round does — the same in every good round, so taken from one
    #: (a sum over rounds would round differently for 40 and 41 of them)
    sim_seconds: float = 0.0
    queries: int = 0
    source_tuples: int = 0
    attempted: int = 0
    failed: int = 0
    #: each good round's report-derived layer metrics (counts repeat
    #: exactly; the few timings among them are reported as medians)
    layer_series: dict[str, list[float]] = field(default_factory=dict)

    @property
    def walls(self) -> list[float]:
        """Round wall seconds at reference host speed."""
        return [wall * c for wall, c in zip(self.raw_walls, self.corrections)]

    @property
    def cpus(self) -> list[float]:
        return [cpu * c for cpu, c in zip(self.raw_cpus, self.corrections)]

    def layer_medians(self) -> dict[str, float]:
        return {
            name: statistics.median(values)
            for name, values in self.layer_series.items()
        }


class Session:
    """One workload, set up once, then measured round by round."""

    def __init__(self, name: str, seed: int, scale_factor: float | None = None) -> None:
        cls = WORKLOADS[name]
        self.workdir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        try:
            self.workload: Workload = cls(
                seed, scale_factor if scale_factor is not None else cls.scale_factor,
                self.workdir,
            )
        except BaseException:
            shutil.rmtree(self.workdir, ignore_errors=True)
            raise
        self._reference: RoundOutcome | None = None

    def close(self) -> None:
        try:
            self.workload.close()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass  # another run's work directory is still there

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _round(
        self, tracer: Tracer | None
    ) -> tuple[float, float, float, RoundOutcome]:
        """``(wall, cpu, host-speed correction, outcome)`` of one round.  The
        kernel passes that bracket the timed region say how fast the host
        was just then; both run on a collected heap."""
        workload = self.workload
        workload.prepare()
        gc.collect()
        kernel_before = kernel()
        cpu_before, _ = _resources(workload)
        started = perf_counter()
        if tracer is None:
            outcome = workload.run()
        else:
            outcome = tracer.call(ROUND_SPAN, workload.run)
        wall = perf_counter() - started
        cpu_after, _ = _resources(workload)
        gc.collect()
        correction = speed_correction((kernel_before + kernel()) / 2)
        return wall, cpu_after - cpu_before, correction, outcome

    def _good(self, outcome: RoundOutcome) -> bool:
        """Oracle-verified and identical to the first round in everything
        that must repeat: answers, counters, simulated seconds, telemetry."""
        if not self.workload.verify(outcome):
            print("round failed: answers differ from the oracle", file=sys.stderr)
            return False
        if self._reference is None:
            self._reference = outcome
            return True
        reference = self._reference
        if outcome.observables != reference.observables or [
            rows for _name, rows in outcome.answers
        ] != [rows for _name, rows in reference.answers]:
            print("round failed: differs from round 0", file=sys.stderr)
            return False
        return True

    def warm_up(self, rounds: int = WARMUP_ROUNDS) -> None:
        for _ in range(rounds):
            *_timing, outcome = self._round(None)
            if not self._good(outcome):
                raise RuntimeError("warm-up round failed verification")

    def measure(
        self,
        seconds: float,
        min_rounds: int,
        tracer: Tracer | None = None,
        max_rounds: int | None = None,
    ) -> Measured:
        """Rounds until ``seconds`` have passed and ``min_rounds`` have run."""
        measured = Measured()
        started = perf_counter()
        while (
            perf_counter() - started < seconds or measured.attempted < min_rounds
        ) and (max_rounds is None or measured.attempted < max_rounds):
            measured.attempted += 1
            try:
                wall, cpu, correction, outcome = self._round(tracer)
            except Exception:
                traceback.print_exc()
                measured.failed += 1
                continue
            if not self._good(outcome):
                measured.failed += 1
                continue
            measured.raw_walls.append(wall)
            measured.raw_cpus.append(cpu)
            measured.corrections.append(correction)
            measured.sim_seconds = outcome.sim_seconds
            measured.queries = outcome.queries
            measured.source_tuples = outcome.source_tuples
            for name, value in outcome.layer.items():
                measured.layer_series.setdefault(name, []).append(value)
        return measured

    def peak_rss_mb(self) -> float:
        return _resources(self.workload)[1]


def end_to_end(measured: Measured, setup_seconds: float, peak_rss_mb: float) -> dict[str, float]:
    """The eight user-visible metrics, from the untraced rounds only.  Every
    round does the same work, so the rates are that work over the *median*
    round: a burst of interference in a few rounds moves a mean, not this."""
    walls = measured.walls
    median_wall = statistics.median(walls)
    return {
        "setup_s": setup_seconds,
        "round_wall_p50_s": median_wall,
        "round_wall_p75_s": statistics.quantiles(walls, n=4)[2],
        "queries_per_s": measured.queries / median_wall,
        "source_tuples_per_s": measured.source_tuples / median_wall,
        "cpu_s_per_query": statistics.median(measured.cpus) / measured.queries,
        "peak_rss_mb": peak_rss_mb,
        "sim_s_per_query": measured.sim_seconds / measured.queries,
    }


def per_layer(
    untraced: Measured, traced: Measured, tracer: Tracer
) -> dict[str, float]:
    """The workload-specific layer metrics of a traced run: counts from the
    execution reports, self times and shares from the spans.  A layer that
    is not on this workload's path reads 0."""
    rounds = tracer.per_round()

    def under(spans: dict[str, tuple[float, int]], prefix: str) -> float:
        """Self seconds of the span ``prefix`` and of every ``prefix.*``."""
        return sum(
            seconds
            for name, (seconds, _calls) in spans.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def self_seconds(prefix: str) -> float:
        return statistics.median(under(spans, prefix) for spans in rounds)

    def share(prefix: str) -> float:
        return statistics.median(
            under(spans, prefix) / sum(seconds for seconds, _calls in spans.values())
            for spans in rounds
        )

    metrics = dict.fromkeys(
        (
            "io.envelope.connects",
            "io.envelope.connect_retries",
            "io.envelope.read_faults",
            "io.envelope.resumes",
            "io.envelope.rows_delivered",
            "io.envelope.backoff_sim_s",
            "serving.sharded.frontend_overhead_s",
            "serving.sharded.worker_busy_ratio",
            "serving.sharded.worker_skew",
        ),
        0.0,
    )
    metrics.update(untraced.layer_medians())
    slowest_worker = metrics.pop("serving.sharded.slowest_worker_s", 0.0)

    metrics.update(
        {
            "io.read_self_s": self_seconds("io"),
            "engine.run_self_s": self_seconds("engine"),
            "engine.compiled.codegen_self_s": self_seconds("engine.codegen"),
            "engine.compiled.chains_compiled": statistics.median(
                spans.get("engine.codegen", (0.0, 0))[1] for spans in rounds
            ),
            "optimizer.reopt_evaluate_self_s": self_seconds("optimizer.reopt_evaluate"),
            "core.corrective_self_s": self_seconds("core.execute"),
            "core.monitor_observe_self_s": self_seconds("core.monitor_observe"),
            "core.stitchup_self_s": self_seconds("core.stitchup"),
            "adaptivity.poll_self_s": self_seconds("adaptivity.poll"),
            "share.untraced": share("bench"),
            "trace.overhead_ratio": statistics.median(traced.walls)
            / statistics.median(untraced.walls),
        }
    )
    for layer in LAYERS:
        metrics[f"share.{layer}"] = share(layer)
    # The front-end's ``run()`` span contains the wait for the workers; the
    # slowest worker's own wall time is reported apart from the front-end's.
    metrics["share.workers"] = slowest_worker / statistics.median(untraced.raw_walls)
    metrics["share.serving"] = max(metrics["share.serving"] - metrics["share.workers"], 0.0)

    delivered = metrics["io.envelope.rows_delivered"] * len(rounds)
    parsed = tracer.counters["io.read_rows"] + tracer.counters["io.rescanned_rows"]
    metrics["io.envelope.refetch_ratio"] = parsed / delivered if delivered else 0.0
    return metrics
