"""Distinct-value counting and uniqueness detection over streams."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DistinctCounter:
    """Exact distinct-value counter with an optional memory budget.

    Below ``max_exact`` values the count is exact; beyond it the counter
    degrades to a linear-counting-style estimate over a fixed-size hash
    bitmap, which keeps maintenance cheap for very wide domains (the paper's
    observation that heavyweight summaries are often too expensive motivates
    keeping this primitive lightweight).
    """

    max_exact: int = 100_000
    bitmap_bits: int = 1 << 14
    _values: set = field(default_factory=set)
    _bitmap: set = field(default_factory=set)
    observed: int = 0
    exact: bool = True

    def add(self, value: object) -> None:
        self.observed += 1
        if self.exact:
            self._values.add(value)
            if len(self._values) > self.max_exact:
                # Degrade: project existing values into the bitmap.
                for existing in self._values:
                    self._bitmap.add(hash(existing) % self.bitmap_bits)
                self._values.clear()
                self.exact = False
        else:
            self._bitmap.add(hash(value) % self.bitmap_bits)

    def estimate(self) -> int:
        """Estimated number of distinct values observed."""
        if self.exact:
            return len(self._values)
        import math

        filled = len(self._bitmap)
        if filled >= self.bitmap_bits:
            return self.observed
        # Linear counting estimator.
        return max(
            int(-self.bitmap_bits * math.log(1.0 - filled / self.bitmap_bits)), filled
        )


@dataclass
class UniquenessDetector:
    """Detects whether a (sorted) stream contains duplicate values.

    The paper notes uniqueness "can be quickly detected in the special case
    where the values are sorted": one comparison with the previous value per
    arrival.  For unsorted streams the detector falls back to a
    :class:`DistinctCounter` comparison, which stays exact up to its budget.
    """

    assume_sorted: bool = True
    observed: int = 0
    duplicate_found: bool = False
    _last_value: object = None
    _counter: DistinctCounter = field(default_factory=DistinctCounter)

    def add(self, value: object) -> None:
        self.observed += 1
        if self.assume_sorted:
            if self._last_value is not None and value == self._last_value:
                self.duplicate_found = True
            self._last_value = value
        else:
            self._counter.add(value)

    def is_unique(self) -> bool:
        """True when no duplicate has been detected so far."""
        if self.assume_sorted:
            return not self.duplicate_found
        return self._counter.estimate() >= self.observed
