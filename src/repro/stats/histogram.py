"""Incremental (dynamic compressed) histograms.

Reproduces the role of the Dynamic Compressed histograms of Donjerkovic,
Ioannidis & Ramakrishnan (paper reference [7]) as used in Section 4.5: a
histogram that is maintained *incrementally* while tuples stream by, keeps
the heaviest values in singleton buckets (the "compressed" part), and
equi-depth-ish range buckets for the rest.  It supports the two estimates the
experiment needs — equality selectivity and equi-join size — and exposes a
maintenance-cost counter so that the "histograms add ~50 % overhead" result
can be reproduced as a measurable quantity.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass


def _scale_counts(counts: dict[float, int], factor: float) -> dict[float, int]:
    """Scale integer counts by ``factor`` with largest-remainder rounding.

    The returned counts sum to ``round(sum(counts) * factor)`` exactly, so a
    scaled histogram's mass stays consistent with its scaled total.  A naive
    per-count ``max(int(c * factor), 1)`` clamps every count to at least one
    tuple, which inflates a heavily down-scaled summary with many distinct
    values by orders of magnitude.  Ties on the fractional part are broken
    deterministically by value.
    """
    if not counts:
        return {}
    target = round(sum(counts.values()) * factor)
    scaled: dict[float, int] = {}
    remainders: list[tuple[float, float]] = []
    allocated = 0
    for value, count in counts.items():
        exact = count * factor
        base = int(exact)
        scaled[value] = base
        allocated += base
        remainders.append((exact - base, value))
    leftover = target - allocated
    if leftover > 0:
        remainders.sort(key=lambda item: (-item[0], item[1]))
        for _fraction, value in remainders[:leftover]:
            scaled[value] += 1
    elif leftover < 0:  # pragma: no cover - int() truncation never overshoots
        remainders.sort(key=lambda item: (item[0], item[1]))
        for _fraction, value in remainders[: -leftover]:
            scaled[value] -= 1
    return scaled


@dataclass
class HistogramBucket:
    """One range bucket: ``[low, high]`` with a tuple count and distinct estimate."""

    low: float
    high: float
    count: int = 0
    distinct: int = 0

    def width(self) -> float:
        return max(self.high - self.low, 0.0)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


class DynamicCompressedHistogram:
    """Incrementally maintained compressed histogram over a numeric attribute.

    Parameters
    ----------
    bucket_target:
        Total number of buckets to aim for (singleton + range buckets); the
        paper's experiment uses 50.
    singleton_fraction:
        Fraction of the bucket budget reserved for singleton (heavy-hitter)
        buckets.
    restructure_interval:
        Number of insertions between restructuring passes (splitting
        overfull range buckets, promoting heavy values to singletons).
    """

    def __init__(
        self,
        bucket_target: int = 50,
        singleton_fraction: float = 0.4,
        restructure_interval: int = 500,
    ) -> None:
        if bucket_target < 4:
            raise ValueError("bucket_target must be at least 4")
        self.bucket_target = bucket_target
        self.singleton_budget = max(1, int(bucket_target * singleton_fraction))
        self.restructure_interval = restructure_interval
        self.total_count = 0
        #: exact counts for values currently promoted to singleton buckets
        self.singletons: dict[float, int] = {}
        #: range buckets, kept sorted by ``low``
        self.buckets: list[HistogramBucket] = []
        #: exact per-value counts the summary is (re)derived from.  Estimates
        #: are always answered from the compressed summary (singletons +
        #: buckets); the exact counts model the incremental maintenance work
        #: the paper charges as histogram overhead.
        self._value_counts: dict[float, int] = {}
        #: sorted ``low`` bounds of :attr:`buckets`, for binary-search lookup
        self._bucket_lows: list[float] = []
        self._since_restructure = 0
        #: number of elementary maintenance operations performed, used to
        #: charge histogram overhead in the Section 4.5 experiment
        self.maintenance_operations = 0

    # -- maintenance -------------------------------------------------------------

    def add(self, value: float) -> None:
        """Fold one observed value into the histogram."""
        self.total_count += 1
        self.maintenance_operations += 1
        self._value_counts[value] = self._value_counts.get(value, 0) + 1
        if value in self.singletons:
            self.singletons[value] += 1
        else:
            bucket = self._find_bucket(value)
            if bucket is not None:
                bucket.count += 1
                self.maintenance_operations += 1
        self._since_restructure += 1
        if self._since_restructure >= self.restructure_interval:
            self._restructure()

    def _find_bucket(self, value: float) -> HistogramBucket | None:
        """Locate the range bucket containing ``value`` by binary search.

        Buckets are non-overlapping and sorted by ``low``, so the candidate
        is the last bucket whose ``low`` is <= value — an O(log buckets)
        lookup on the hot ``add``/``frequency`` path instead of the previous
        linear scan.  The index is rebuilt lazily so code that replaces
        :attr:`buckets` wholesale (e.g. ``scaled``) stays correct.
        """
        buckets = self.buckets
        if not buckets:
            return None
        lows = self._bucket_lows
        if len(lows) != len(buckets):
            lows = self._rebuild_bucket_index()
        idx = bisect.bisect_right(lows, value) - 1
        if idx < 0:
            return None
        bucket = buckets[idx]
        return bucket if bucket.contains(value) else None

    def _rebuild_bucket_index(self) -> list[float]:
        self._bucket_lows = [bucket.low for bucket in self.buckets]
        return self._bucket_lows

    def _restructure(self) -> None:
        """Rebuild singleton and range buckets from the accumulated counts."""
        self._since_restructure = 0
        combined = self._value_counts
        if not combined:
            return
        self.maintenance_operations += len(combined)

        # Promote the heaviest values to singleton buckets.
        by_weight = sorted(combined.items(), key=lambda item: item[1], reverse=True)
        self.singletons = dict(by_weight[: self.singleton_budget])
        remainder = by_weight[self.singleton_budget :]

        # Distribute the rest into equi-depth range buckets.
        range_budget = max(self.bucket_target - len(self.singletons), 1)
        remainder.sort(key=lambda item: item[0])
        if not remainder:
            self.buckets = []
            self._rebuild_bucket_index()
            return
        total = sum(count for _value, count in remainder)
        per_bucket = max(total // range_budget, 1)
        buckets: list[HistogramBucket] = []
        current = HistogramBucket(low=remainder[0][0], high=remainder[0][0])
        for value, count in remainder:
            if current.count >= per_bucket and len(buckets) < range_budget - 1:
                buckets.append(current)
                current = HistogramBucket(low=value, high=value)
            current.high = max(current.high, value)
            current.low = min(current.low, value)
            current.count += count
            current.distinct += 1
        buckets.append(current)
        self.buckets = buckets
        self._rebuild_bucket_index()
        self.maintenance_operations += len(buckets)

    def flush(self) -> None:
        """Force a restructuring pass (used before asking for estimates)."""
        self._restructure()

    # -- estimation ---------------------------------------------------------------

    def frequency(self, value: float) -> float:
        """Estimated number of occurrences of ``value`` seen so far."""
        if value in self.singletons:
            return float(self.singletons[value])
        bucket = self._find_bucket(value)
        if bucket is None or bucket.distinct == 0:
            # Not represented by the summary yet (seen only since the last
            # restructuring pass, or never).
            return float(self._value_counts.get(value, 0))
        return bucket.count / max(bucket.distinct, 1)

    def selectivity(self, value: float) -> float:
        """Estimated fraction of the stream equal to ``value``."""
        if self.total_count == 0:
            return 0.0
        return min(self.frequency(value) / self.total_count, 1.0)

    def distinct_estimate(self) -> int:
        """Estimated number of distinct values observed."""
        summary = len(self.singletons) + sum(bucket.distinct for bucket in self.buckets)
        return max(summary, len(self._value_counts), 1)

    def join_size_estimate(self, other: "DynamicCompressedHistogram") -> float:
        """Estimated equi-join output size between the two summarized streams.

        Heavy hitters are matched exactly; the remaining mass is matched under
        a containment-of-values assumption using the smaller distinct count.
        """
        if self.total_count == 0 or other.total_count == 0:
            return 0.0
        estimate = 0.0
        # Exact contribution of values that are singletons on both sides.
        shared = set(self.singletons) & set(other.singletons)
        for value in shared:
            estimate += self.singletons[value] * other.singletons[value]
        # Remaining mass on each side.
        self_rest = self.total_count - sum(self.singletons[v] for v in shared)
        other_rest = other.total_count - sum(other.singletons[v] for v in shared)
        self_distinct = max(self.distinct_estimate() - len(shared), 1)
        other_distinct = max(other.distinct_estimate() - len(shared), 1)
        estimate += (self_rest * other_rest) / max(self_distinct, other_distinct)
        return estimate

    def scaled(self, factor: float) -> "DynamicCompressedHistogram":
        """Return a copy with all counts scaled by ``factor``.

        Used to extrapolate a histogram over a partially seen stream to the
        whole stream ("assume performance is consistent throughout").  Counts
        are scaled with largest-remainder rounding so the clone's summed mass
        stays consistent with ``total_count * factor``: the previous
        ``max(int(c * factor), 1)`` clamp kept every singleton and value
        count at >= 1 tuple, so heavily down-scaling a summary with many
        distinct values produced a clone whose mass exceeded its nominal
        total by orders of magnitude.
        """
        # The singleton_fraction constructor argument is a placeholder (0.0):
        # round-tripping the budget through ``singleton_budget /
        # bucket_target`` can shrink it under float truncation (e.g.
        # ``int(50 * (29 / 50)) == 28``), so the budget and the maintenance
        # counters are copied over directly instead.
        clone = DynamicCompressedHistogram(
            self.bucket_target, 0.0, self.restructure_interval
        )
        clone.singleton_budget = self.singleton_budget
        clone.maintenance_operations = self.maintenance_operations
        clone._since_restructure = self._since_restructure
        scaled_counts = _scale_counts(self._value_counts, factor)
        clone.total_count = sum(scaled_counts.values())
        clone._value_counts = {v: c for v, c in scaled_counts.items() if c > 0}
        clone.singletons = {
            v: scaled_counts[v]
            for v in self.singletons
            if scaled_counts.get(v, 0) > 0
        }
        # Re-derive range-bucket counts from the scaled value counts (rather
        # than scaling each bucket independently): singleton and bucket mass
        # then partition the scaled total exactly, instead of double-counting
        # the rounding units the singletons already absorbed.
        lows = [b.low for b in self.buckets]
        bucket_counts = [0] * len(self.buckets)
        for value, count in clone._value_counts.items():
            if count <= 0 or value in self.singletons:
                continue
            idx = bisect.bisect_right(lows, value) - 1
            if idx >= 0 and self.buckets[idx].contains(value):
                bucket_counts[idx] += count
        clone.buckets = [
            HistogramBucket(b.low, b.high, bucket_counts[i], b.distinct)
            for i, b in enumerate(self.buckets)
        ]
        clone._rebuild_bucket_index()
        return clone
