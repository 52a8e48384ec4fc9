"""The resilience envelope: timeouts, retry/backoff, breaker, resume.

:class:`ResilientSource` wraps a :class:`~repro.io.backends.Transport` and
speaks the engine's `DataSource` stream protocol, so `SourceCursor` buffers
it exactly like a simulated source. Around every read it provides:

* **retry with seeded-deterministic jittered exponential backoff** — each
  retry's delay is a pure function of ``(seed, retry_index)``, so a faulted
  run replays bit-identically;
* **a per-source circuit breaker** — consecutive transport failures past
  the threshold open the circuit; while open, the envelope *stalls on its
  timeline* for the cooldown instead of hammering the backend. Under the
  simulated timeline that stall is exactly the arrival-time jump the
  adaptivity monitor turns into `SourceRateEvent`s, which is how a tripped
  breaker lands in `MirrorFailoverPolicy` / `FailoverSourceAction`
  territory; exhausting the retry budget force-opens the breaker and
  surfaces as :class:`~repro.io.errors.CircuitOpenError`;
* **offset-based resume** — reconnects reopen the transport at the last
  delivered row offset, so mid-stream resets and truncations never
  duplicate or drop rows. A mirror failover onto an envelope is the same
  resume from outside: ``open_stream_columns(batch_size, offset, start_at)``.

There is **one retry/resume loop** (``ResilientSource._chunks_from``), and
``_stream_columns`` re-cuts its transport chunks into the ``(rows,
arrivals)`` columns a `SourceCursor` pulls.  A chunk is read only when the
batch being filled needs a row, and each *segment* of a chunk is counted in
``rows_delivered`` and stamped with one ``timeline.now()`` at the pull that
emits it, so rows, arrivals and telemetry do not depend on the batch size.
Under :class:`WallTimeline` a row's arrival is therefore the instant its
chunk was read, not the instant it was handed over.

Time flows through a :class:`Timeline`: the default
:class:`SimulatedTimeline` accounts every backoff delay and injected stall
as deterministic simulated seconds (answers bit-identical, no wall reads);
:class:`WallTimeline` reads and sleeps real time — the timeline for a
deployment, where backoff must actually wait.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.io.backends import RowReader, Transport
from repro.io.errors import CircuitOpenError, TransportError, TruncatedPayloadError
from repro.io.wallclock import wall_now, wall_sleep
from repro.sources.source import Columns, DataSource


class Timeline:
    """The envelope's clock surface: a current time and a way to wait."""

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError

    def branch(self, start_at: float) -> "Timeline":
        """An independent timeline whose origin reads ``start_at`` now."""
        raise NotImplementedError


class SimulatedTimeline(Timeline):
    """Deterministic timeline: sleeping just advances the reading."""

    def __init__(self, start_at: float = 0.0) -> None:
        self._now = start_at

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0.0:
            self._now += seconds

    def branch(self, start_at: float) -> "SimulatedTimeline":
        return SimulatedTimeline(start_at)


class WallTimeline(Timeline):  # lint: ignore[reachability.unread] real-time deployments
    """The timeline for a deployment on real time: readings elapse, sleeps sleep."""

    def __init__(self, start_at: float = 0.0) -> None:
        self._origin = wall_now() - start_at

    def now(self) -> float:
        return wall_now() - self._origin

    def sleep(self, seconds: float) -> None:
        wall_sleep(seconds)

    def branch(self, start_at: float) -> "WallTimeline":
        return WallTimeline(start_at)


class BackoffSchedule:
    """Seeded-deterministic jittered exponential backoff.

    ``delay(i)`` is ``min(cap, base * multiplier**i)`` scaled down by up to
    ``jitter`` of itself, where the jitter fraction is drawn from a fresh
    ``random.Random(f"{seed}:{i}")`` — a pure function of ``(seed, i)``, so
    the schedule is identical across runs, platforms, and call orders, and
    never exceeds ``cap``.
    """

    def __init__(
        self,
        base: float = 0.05,
        multiplier: float = 2.0,
        cap: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if base <= 0.0 or multiplier < 1.0 or cap < base:
            raise ValueError("need base > 0, multiplier >= 1, cap >= base")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.base = base
        self.multiplier = multiplier
        self.cap = cap
        self.jitter = jitter
        self.seed = seed

    def delay(self, retry_index: int) -> float:
        raw = min(self.cap, self.base * self.multiplier ** retry_index)
        if self.jitter == 0.0:
            return raw
        fraction = random.Random(f"{self.seed}:{retry_index}").random()
        return raw * (1.0 - self.jitter * fraction)


class CircuitBreaker:
    """Per-source breaker over consecutive transport failures.

    Closed → open after ``failure_threshold`` consecutive failures; while
    open, :meth:`allow` refuses until ``cooldown_seconds`` have elapsed on
    the envelope's timeline, then one half-open probe is let through. A
    half-open failure re-opens immediately; any success closes.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self, failure_threshold: int = 4, cooldown_seconds: float = 1.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.state = self.CLOSED
        self.failures = 0
        self.trip_count = 0
        self.opened_at = 0.0

    def allow(self, now: float) -> bool:
        if self.state != self.OPEN:
            return True
        if now - self.opened_at >= self.cooldown_seconds:
            self.state = self.HALF_OPEN
            return True
        return False

    def cooldown_remaining(self, now: float) -> float:
        if self.state != self.OPEN:
            return 0.0
        return max(0.0, self.cooldown_seconds - (now - self.opened_at))

    def probe_after_cooldown(self) -> None:
        """Open → half-open once the caller has waited out the cooldown.

        Callers that slept ``cooldown_remaining`` call this instead of
        re-polling :meth:`allow`: float rounding can leave the timeline an
        ulp short of the threshold, and re-polling would spin forever.
        """
        if self.state == self.OPEN:
            self.state = self.HALF_OPEN

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.failure_threshold:
            self._open(now)

    def record_success(self) -> None:
        self.failures = 0
        self.state = self.CLOSED

    def force_open(self, now: float) -> None:
        """Trip unconditionally (retry-budget exhaustion)."""
        self._open(now)

    def _open(self, now: float) -> None:
        if self.state != self.OPEN:
            self.trip_count += 1
        self.state = self.OPEN
        self.opened_at = now


@dataclass
class EnvelopeTelemetry:
    """Commutative counters describing one envelope's fault history."""

    connects: int = 0
    connect_retries: int = 0
    read_faults: int = 0
    truncations: int = 0
    resumes: int = 0
    rows_delivered: int = 0
    backoff_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "connects": self.connects,
            "connect_retries": self.connect_retries,
            "read_faults": self.read_faults,
            "truncations": self.truncations,
            "resumes": self.resumes,
            "rows_delivered": self.rows_delivered,
            "backoff_seconds": self.backoff_seconds,
        }


@dataclass
class _StreamState:
    """Per-stream retry accounting (budgets are per opened stream)."""

    connect_failures: int = 0
    read_failures: int = 0
    retry_index: int = 0


class ResilientSource(DataSource):
    """A real-backend `DataSource` wrapped in the resilience envelope."""

    def __init__(
        self,
        transport: Transport,
        timeline: Timeline | None = None,
        backoff: BackoffSchedule | None = None,
        breaker: CircuitBreaker | None = None,
        connect_retry_limit: int = 8,
        read_retry_limit: int = 16,
        chunk_rows: int = 64,
        promised_rate: float | None = None,
    ) -> None:
        super().__init__(transport.name, transport.schema)
        if connect_retry_limit < 0 or read_retry_limit < 0:
            raise ValueError("retry limits must be non-negative")
        self.transport = transport
        self.timeline: Timeline = timeline or SimulatedTimeline()
        self.backoff = backoff or BackoffSchedule()
        self.breaker = breaker or CircuitBreaker()
        self.connect_retry_limit = connect_retry_limit
        self.read_retry_limit = read_retry_limit
        self.chunk_rows = chunk_rows
        self.promised_rate = promised_rate
        self.telemetry = EnvelopeTelemetry()
        self.mirrors: list["ResilientSource"] = []

    # -- mirror failover (the RemoteSource mirror contract) ------------

    def register_mirror(self, mirror: "ResilientSource") -> None:
        """Declare an envelope serving the same rows as a failover target."""
        ours = tuple(attribute.name for attribute in self.schema.attributes)
        theirs = tuple(attribute.name for attribute in mirror.schema.attributes)
        if ours != theirs:
            raise ValueError(
                f"mirror of {self.name!r} must share its schema "
                f"({ours} != {theirs})"
            )
        self.mirrors.append(mirror)

    # -- the DataSource stream protocol ---------------------------------

    def _stream_columns(
        self, batch_size: int, offset: int, start_at: float | None
    ) -> Iterator[Columns]:
        """The chunk loop from ``offset`` in columns of ``batch_size`` rows;
        a float ``start_at`` runs it on ``timeline.branch(start_at)``."""
        timeline = self.timeline if start_at is None else self.timeline.branch(start_at)
        telemetry = self.telemetry
        rows: list[tuple[object, ...]] = []
        arrivals: list[float] = []
        for chunk in self._chunks_from(offset, timeline):
            start = 0
            while start < len(chunk):
                take = chunk[start : start + batch_size - len(rows)]
                start += len(take)
                telemetry.rows_delivered += len(take)
                rows += take
                arrivals += [timeline.now()] * len(take)
                if len(rows) >= batch_size:
                    # stamps never decrease, so the last bounds the chunk
                    yield rows, (None if arrivals[-1] <= 0.0 else arrivals)
                    rows, arrivals = [], []
        if rows:
            yield rows, (None if arrivals[-1] <= 0.0 else arrivals)

    # -- envelope internals ----------------------------------------------

    def _chunks_from(
        self, offset: int, timeline: Timeline
    ) -> Iterator[list[tuple[object, ...]]]:
        """The one retry/resume loop: transport chunks from ``offset`` on."""
        state = _StreamState()
        reader: RowReader | None = self._connect(offset, timeline, state)
        try:
            while True:
                try:
                    chunk = reader.read_rows(self.chunk_rows)
                except TransportError as exc:
                    reader.close()
                    reader = None
                    self._record_read_failure(exc, timeline, state)
                    self._backoff(timeline, state)
                    self.telemetry.resumes += 1
                    reader = self._connect(offset, timeline, state)
                    continue
                if not chunk:
                    break
                self.breaker.record_success()
                offset += len(chunk)
                yield chunk
        finally:
            if reader is not None:
                reader.close()

    def _connect(
        self, offset: int, timeline: Timeline, state: _StreamState
    ) -> RowReader:
        while True:
            if not self.breaker.allow(timeline.now()):
                # An open breaker is a stall, not a hot loop: waiting out the
                # cooldown on the timeline is what the adaptivity monitor
                # sees as a collapsed source (SourceRateEvent territory).
                timeline.sleep(self.breaker.cooldown_remaining(timeline.now()))
                self.breaker.probe_after_cooldown()
            try:
                reader = self.transport.open(offset)
            except TransportError as exc:
                state.connect_failures += 1
                self.telemetry.connect_retries += 1
                self.breaker.record_failure(timeline.now())
                if state.connect_failures > self.connect_retry_limit:
                    self.breaker.force_open(timeline.now())
                    raise CircuitOpenError(
                        f"{self.name}: connect retry budget "
                        f"({self.connect_retry_limit}) exhausted; "
                        f"circuit open after {self.breaker.trip_count} trip(s)"
                    ) from exc
                self._backoff(timeline, state)
                continue
            self.telemetry.connects += 1
            return reader

    def _record_read_failure(
        self, exc: TransportError, timeline: Timeline, state: _StreamState
    ) -> None:
        state.read_failures += 1
        self.telemetry.read_faults += 1
        if isinstance(exc, TruncatedPayloadError):
            self.telemetry.truncations += 1
        self.breaker.record_failure(timeline.now())
        if state.read_failures > self.read_retry_limit:
            self.breaker.force_open(timeline.now())
            raise CircuitOpenError(
                f"{self.name}: read retry budget "
                f"({self.read_retry_limit}) exhausted; "
                f"circuit open after {self.breaker.trip_count} trip(s)"
            ) from exc

    def _backoff(self, timeline: Timeline, state: _StreamState) -> None:
        delay = self.backoff.delay(state.retry_index)
        state.retry_index += 1
        self.telemetry.backoff_seconds += delay
        timeline.sleep(delay)


__all__ = [
    "BackoffSchedule",
    "CircuitBreaker",
    "EnvelopeTelemetry",
    "ResilientSource",
    "SimulatedTimeline",
    "Timeline",
    "WallTimeline",
]
