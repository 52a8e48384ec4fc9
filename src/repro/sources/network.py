"""Network models: how tuples arrive from a remote source over time.

The paper evaluates corrective query processing both with local data and with
sources accessed over an 802.11b wireless network "known to be highly bursty"
(Figure 3 / Table 2).  A network model assigns each streamed tuple an arrival
time; the engine's simulated clock stalls when it tries to read a tuple that
has not arrived yet.  All models are deterministic given their seed, so the
wireless experiment is exactly reproducible.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence


class NetworkModel:
    """Produces per-tuple arrival times for one source connection."""

    def arrival_times(self, tuple_count: int) -> Iterator[float]:
        """Yield ``tuple_count`` non-decreasing arrival times (seconds)."""
        raise NotImplementedError


class InstantNetworkModel(NetworkModel):
    """Everything is available immediately (equivalent to a local source)."""

    def arrival_times(self, tuple_count: int) -> Iterator[float]:
        for _ in range(tuple_count):
            yield 0.0


class ConstantRateNetworkModel(NetworkModel):
    """Tuples arrive at a fixed rate after an optional connection latency."""

    def __init__(self, tuples_per_second: float, latency: float = 0.0) -> None:
        if tuples_per_second <= 0:
            raise ValueError("tuples_per_second must be positive")
        self.tuples_per_second = tuples_per_second
        self.latency = max(latency, 0.0)

    def arrival_times(self, tuple_count: int) -> Iterator[float]:
        interval = 1.0 / self.tuples_per_second
        for index in range(tuple_count):
            yield self.latency + index * interval


class PhasedRateNetworkModel(NetworkModel):
    """Piecewise-constant delivery rates: collapses, outages and recoveries.

    ``phases`` is a sequence of ``(duration_seconds, tuples_per_second)``
    segments (rate ``0`` models a silent outage); once the phases are spent,
    remaining tuples arrive at ``tail_rate``.  Fully deterministic with no
    RNG, which makes it the workhorse of the source-rate adaptivity
    benchmark: a "fast" promise with a slow first phase and a fast tail is a
    collapsed-then-recovered source, a silent middle phase is a flaky one.
    """

    def __init__(
        self,
        phases: Sequence[tuple[float, float]],
        tail_rate: float,
        latency: float = 0.0,
    ) -> None:
        if tail_rate <= 0:
            raise ValueError("tail_rate must be positive")
        for duration, rate in phases:
            if duration < 0:
                raise ValueError("phase durations must be non-negative")
            if rate < 0:
                raise ValueError("phase rates must be non-negative (0 = outage)")
        self.phases = tuple((float(d), float(r)) for d, r in phases)
        self.tail_rate = tail_rate
        self.latency = max(latency, 0.0)

    def arrival_times(self, tuple_count: int) -> Iterator[float]:
        now = self.latency
        produced = 0
        for duration, rate in self.phases:
            end = now + duration
            if rate > 0:
                interval = 1.0 / rate
                while produced < tuple_count and now < end:
                    yield now
                    now += interval
                    produced += 1
            now = max(now, end)
        interval = 1.0 / self.tail_rate
        while produced < tuple_count:
            yield now
            now += interval
            produced += 1

class BurstyNetworkModel(NetworkModel):
    """Bursty, bandwidth-limited link modelled as alternating burst/gap periods.

    During a burst, tuples arrive back to back at ``burst_rate``; between
    bursts the link goes quiet for a randomly drawn gap.  Burst lengths and
    gap durations are drawn from seeded exponential-ish distributions, giving
    the heavy variance of a congested wireless link while remaining fully
    deterministic for a given seed.
    """

    def __init__(
        self,
        burst_rate: float = 4000.0,
        mean_burst_tuples: int = 200,
        mean_gap_seconds: float = 0.25,
        latency: float = 0.05,
        seed: int = 0,
    ) -> None:
        if burst_rate <= 0:
            raise ValueError("burst_rate must be positive")
        if mean_burst_tuples < 1:
            raise ValueError("mean_burst_tuples must be at least 1")
        if mean_gap_seconds < 0:
            raise ValueError("mean_gap_seconds must be non-negative")
        self.burst_rate = burst_rate
        self.mean_burst_tuples = mean_burst_tuples
        self.mean_gap_seconds = mean_gap_seconds
        self.latency = max(latency, 0.0)
        self.seed = seed

    def arrival_times(self, tuple_count: int) -> Iterator[float]:
        rng = random.Random(self.seed)
        now = self.latency
        interval = 1.0 / self.burst_rate
        produced = 0
        while produced < tuple_count:
            burst_length = max(1, int(rng.expovariate(1.0 / self.mean_burst_tuples)))
            for _ in range(min(burst_length, tuple_count - produced)):
                yield now
                now += interval
                produced += 1
            if produced < tuple_count and self.mean_gap_seconds > 0:
                now += rng.expovariate(1.0 / self.mean_gap_seconds)
