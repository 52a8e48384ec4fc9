"""Order detection over streaming attribute values.

Section 4.5 combines incremental histograms with an *order detector*: when a
stream turns out to be sorted on the join attribute, intermediate result
sizes can be predicted from how far the key ranges have advanced, even when
histograms alone would need the data in random order.  Section 5's
complementary join uses the same primitive per-tuple: "does this tuple
conform to the ordering of its predecessors?"
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class OrderState(str, Enum):
    """Classification of a stream's ordering as observed so far."""

    UNKNOWN = "unknown"
    ASCENDING = "ascending"
    DESCENDING = "descending"
    UNORDERED = "unordered"


@dataclass
class OrderDetector:
    """Tracks whether a stream of values is (mostly) sorted.

    ``tolerance`` is the fraction of out-of-order arrivals allowed before the
    stream is declared :attr:`OrderState.UNORDERED`; a tolerance of 0 means
    strictly sorted.  The detector also reports the fraction of in-order
    arrivals, which the complementary-join router uses to decide whether
    speculating on order is still worthwhile.
    """

    tolerance: float = 0.0
    observed: int = 0
    ascending_violations: int = 0
    descending_violations: int = 0
    #: arrivals strictly below the running maximum ("late" for an ascending
    #: stream) / strictly above the running minimum ("late" for a descending
    #: one).  Unlike adjacent-pair violations these measure how many tuples
    #: would miss the in-order fast path of an order-exploiting operator, so
    #: they are what the merge-join cost comparison consumes.
    below_highwater: int = 0
    above_lowwater: int = 0
    last_value: object = None
    min_value: object = None
    max_value: object = None

    def add(self, value: object) -> None:
        """Observe the next value of the stream."""
        if self.observed == 0:
            self.min_value = value
            self.max_value = value
        else:
            if value < self.last_value:
                self.ascending_violations += 1
            if value > self.last_value:
                self.descending_violations += 1
            if value < self.max_value:
                self.below_highwater += 1
            if value > self.min_value:
                self.above_lowwater += 1
            if value < self.min_value:
                self.min_value = value
            if value > self.max_value:
                self.max_value = value
        self.last_value = value
        self.observed += 1

    # -- classification ------------------------------------------------------------

    def state(self) -> OrderState:
        if self.observed <= 1:
            return OrderState.UNKNOWN
        comparisons = self.observed - 1
        if self.ascending_violations <= self.tolerance * comparisons:
            return OrderState.ASCENDING
        if self.descending_violations <= self.tolerance * comparisons:
            return OrderState.DESCENDING
        return OrderState.UNORDERED

    def is_sorted(self) -> bool:
        return self.state() in (OrderState.ASCENDING, OrderState.DESCENDING)

    def direction(self) -> int | None:
        """``+1`` for an ascending stream, ``-1`` for descending, else ``None``."""
        state = self.state()
        if state is OrderState.ASCENDING:
            return 1
        if state is OrderState.DESCENDING:
            return -1
        return None

    def in_order_fraction(self, direction: int | None = None) -> float:
        """Fraction of arrivals an order-exploiting operator can fast-path.

        For an ascending stream that is the fraction of arrivals at or above
        the running maximum; descending mirrors it via the running minimum.
        This is deliberately stricter than counting adjacent-pair
        violations (:attr:`ascending_violations`): a single early high value
        makes every subsequent smaller arrival "late" for a merge join, even
        though only one adjacent pair was inverted.
        """
        if self.observed <= 1:
            return 1.0
        if direction is None:
            direction = self.direction()
        comparisons = self.observed - 1
        if direction == -1:
            return 1.0 - self.above_lowwater / comparisons
        return 1.0 - self.below_highwater / comparisons

    # -- estimation -----------------------------------------------------------------

    def progress_fraction(self, domain_low: float, domain_high: float) -> float | None:
        """How far through ``[domain_low, domain_high]`` a sorted stream has advanced.

        Meaningful when the stream is (near-)sorted: for an ascending stream
        the fraction of the key domain covered so far estimates the fraction
        of the relation that has been read — the quantity the Section 4.5
        predictor exploits for sorted inputs; a descending stream mirrors the
        computation from the top of the domain.  The merge-join router relies
        on both directions being supported.

        The high-water mark (``max_value``; ``min_value`` for descending) is
        used rather than the last arrival: with ``tolerance > 0`` a stream
        stays classified sorted through occasional out-of-order values, and a
        late straggler must not make the progress estimate jump backwards.
        """
        state = self.state()
        if self.observed == 0:
            return None
        span = domain_high - domain_low
        if span <= 0:
            return None
        if state is OrderState.ASCENDING:
            return min(max((self.max_value - domain_low) / span, 0.0), 1.0)
        if state is OrderState.DESCENDING:
            return min(max((domain_high - self.min_value) / span, 0.0), 1.0)
        return None
