"""Zipf-distributed value sampling.

The paper's skewed dataset was generated with Microsoft Research's skewed
TPC-D generator using a Zipf factor of z = 0.5 on the major attributes.  That
generator is proprietary; this module provides the equivalent statistical
machinery: deterministic, seeded Zipf sampling over an integer domain, used
by :mod:`repro.workloads.generator` to skew foreign keys and aggregation
attributes.
"""

from __future__ import annotations

import bisect
import random
from typing import Sequence


def zipf_weights(domain_size: int, z: float) -> list[float]:
    """Unnormalized Zipf weights ``1 / rank**z`` for ranks 1..domain_size."""
    if domain_size < 1:
        raise ValueError("domain_size must be positive")
    if z < 0:
        raise ValueError("the Zipf exponent must be non-negative")
    return [1.0 / (rank**z) for rank in range(1, domain_size + 1)]


class ZipfSampler:
    """Seeded sampler drawing values from a finite domain with Zipf skew.

    ``z = 0`` degenerates to uniform sampling, matching how the uniform and
    skewed datasets in the paper differ only in this parameter.  Sampling is
    by binary search over the cumulative weight table, O(log n) per draw.
    """

    def __init__(
        self,
        domain: Sequence[object] | int,
        z: float = 0.5,
        seed: int = 0,
        shuffle_ranks: bool = True,
    ) -> None:
        """``domain`` is either a sequence of values or an integer n meaning
        the values ``1..n``.  When ``shuffle_ranks`` is set the heavy ranks
        are assigned to random domain values (so skew does not always favour
        the smallest keys), deterministically derived from ``seed``."""
        if isinstance(domain, int):
            values: list[object] = list(range(1, domain + 1))
        else:
            values = list(domain)
        if not values:
            raise ValueError("domain must not be empty")
        self.z = z
        self._rng = random.Random(seed)
        if shuffle_ranks:
            order = list(values)
            self._rng.shuffle(order)
            self.values = order
        else:
            self.values = values
        weights = zipf_weights(len(self.values), z)
        self._cumulative: list[float] = []
        total = 0.0
        for weight in weights:
            total += weight
            self._cumulative.append(total)
        self._total_weight = total

    def sample(self) -> object:
        """Draw one value."""
        point = self._rng.random() * self._total_weight
        index = bisect.bisect_left(self._cumulative, point)
        if index >= len(self.values):
            index = len(self.values) - 1
        return self.values[index]
