"""Tests for the dynamic compressed histogram."""

import random

import pytest

from helpers import feed
from repro.stats.histogram import DynamicCompressedHistogram
from repro.stats.zipf import ZipfSampler


class TestMaintenance:
    def test_counts_and_flush(self):
        histogram = DynamicCompressedHistogram(bucket_target=10, restructure_interval=50)
        feed(histogram, [1] * 30 + [2] * 10 + list(range(3, 50)))
        histogram.flush()
        assert histogram.total_count == 30 + 10 + 47
        assert histogram.maintenance_operations > 0

    def test_heavy_hitters_promoted_to_singletons(self):
        histogram = DynamicCompressedHistogram(bucket_target=10, restructure_interval=100)
        feed(histogram, [7] * 500 + list(range(100)))
        histogram.flush()
        assert 7 in histogram.singletons
        assert histogram.frequency(7) == pytest.approx(500, rel=0.05)

    def test_invalid_bucket_target(self):
        with pytest.raises(ValueError):
            DynamicCompressedHistogram(bucket_target=2)


class TestEstimation:
    def test_selectivity_of_heavy_value(self):
        histogram = DynamicCompressedHistogram(bucket_target=20, restructure_interval=100)
        values = [1] * 900 + list(range(2, 102))
        feed(histogram, values)
        histogram.flush()
        assert histogram.selectivity(1) == pytest.approx(0.9, rel=0.05)

    def test_frequency_of_unseen_value(self):
        histogram = DynamicCompressedHistogram()
        feed(histogram, range(100))
        histogram.flush()
        # An unseen value outside all buckets has frequency ~0 or the bucket average.
        assert histogram.frequency(10_000) <= 2

    def test_distinct_estimate_reasonable(self):
        histogram = DynamicCompressedHistogram(bucket_target=50, restructure_interval=200)
        feed(histogram, range(500))
        histogram.flush()
        assert histogram.distinct_estimate() >= 50

    def test_uniform_join_size_estimate(self):
        """For uniform same-domain keys, the join estimate should be close to exact."""
        rng = random.Random(0)
        domain = 200
        left = [rng.randrange(domain) for _ in range(2000)]
        right = [rng.randrange(domain) for _ in range(1000)]
        h_left = DynamicCompressedHistogram(bucket_target=50, restructure_interval=200)
        h_right = DynamicCompressedHistogram(bucket_target=50, restructure_interval=200)
        feed(h_left, left)
        feed(h_right, right)
        h_left.flush(), h_right.flush()
        exact = 0
        right_counts = {}
        for value in right:
            right_counts[value] = right_counts.get(value, 0) + 1
        for value in left:
            exact += right_counts.get(value, 0)
        estimate = h_left.join_size_estimate(h_right)
        assert estimate == pytest.approx(exact, rel=0.5)

    def test_skewed_join_size_estimate_direction(self):
        """With Zipf skew the estimate must reflect the heavy-hitter inflation."""
        sampler = ZipfSampler(200, z=1.0, seed=3)
        left = [sampler.sample() for _ in range(2000)]
        right = [sampler.sample() for _ in range(1000)]
        h_left = DynamicCompressedHistogram(bucket_target=50, restructure_interval=200)
        h_right = DynamicCompressedHistogram(bucket_target=50, restructure_interval=200)
        feed(h_left, left)
        feed(h_right, right)
        h_left.flush(), h_right.flush()
        uniform_guess = len(left) * len(right) / 200
        estimate = h_left.join_size_estimate(h_right)
        exact = 0
        right_counts = {}
        for value in right:
            right_counts[value] = right_counts.get(value, 0) + 1
        for value in left:
            exact += right_counts.get(value, 0)
        # Skew makes the true size much larger than the uniform guess; the
        # histogram-based estimate must capture a substantial part of that gap.
        assert exact > 1.5 * uniform_guess
        assert estimate > 1.2 * uniform_guess
        assert estimate == pytest.approx(exact, rel=0.6)

    def test_empty_histogram(self):
        histogram = DynamicCompressedHistogram()
        assert histogram.selectivity(1) == 0.0
        assert histogram.join_size_estimate(DynamicCompressedHistogram()) == 0.0

    def test_scaled_extrapolation(self):
        histogram = DynamicCompressedHistogram(bucket_target=20, restructure_interval=100)
        feed(histogram, [1] * 100 + list(range(2, 52)))
        histogram.flush()
        doubled = histogram.scaled(2.0)
        assert doubled.total_count == 2 * histogram.total_count
        assert doubled.frequency(1) == pytest.approx(2 * histogram.frequency(1), rel=0.05)

    def test_scaled_down_mass_stays_consistent_with_total(self):
        """Regression: ``max(int(c * factor), 1)`` clamped every singleton /
        value count to >= 1 tuple, so scaling a 1000-distinct-value summary
        down by 100x produced a clone whose summed mass (~1000) exceeded its
        nominal total (~10) by two orders of magnitude."""
        histogram = DynamicCompressedHistogram(
            bucket_target=50, restructure_interval=200
        )
        feed(histogram, range(1000))  # 1000 distinct values, one each
        histogram.flush()
        clone = histogram.scaled(0.01)
        assert clone.total_count == 10
        assert sum(clone._value_counts.values()) == clone.total_count
        summary_mass = sum(clone.singletons.values()) + sum(
            bucket.count for bucket in clone.buckets
        )
        assert summary_mass <= clone.total_count
        # Selectivities stay probabilities (the inflated clone broke this).
        assert sum(clone.selectivity(v) for v in range(1000)) <= 1.0 + 1e-9

    def test_scaled_up_remains_exact_for_integer_factors(self):
        histogram = DynamicCompressedHistogram(bucket_target=20, restructure_interval=50)
        feed(histogram, [1] * 30 + list(range(2, 40)))
        histogram.flush()
        tripled = histogram.scaled(3.0)
        assert tripled.total_count == 3 * histogram.total_count
        assert tripled.frequency(1) == pytest.approx(3 * histogram.frequency(1))

    def test_find_bucket_binary_search_matches_linear_semantics(self):
        histogram = DynamicCompressedHistogram(bucket_target=10, restructure_interval=50)
        feed(histogram, range(0, 500, 2))  # even values only
        histogram.flush()
        for value in (-1, 0, 3, 250, 498, 499, 10_000):
            found = histogram._find_bucket(value)
            expected = next(
                (bucket for bucket in histogram.buckets if bucket.contains(value)),
                None,
            )
            assert found is expected

    def test_scaled_preserves_singleton_budget_and_counters(self):
        """Regression: the singleton budget used to round-trip through
        ``singleton_budget / bucket_target``, which float truncation can
        shrink (``int(50 * (29 / 50)) == 28``), and the maintenance counters
        were silently reset on every extrapolation."""
        histogram = DynamicCompressedHistogram(
            bucket_target=50, singleton_fraction=0.59, restructure_interval=100
        )
        assert histogram.singleton_budget == 29
        # The buggy round-trip: int(50 * (29 / 50)) == 28 under IEEE floats.
        assert int(histogram.bucket_target * (29 / 50)) == 28
        feed(histogram, range(150))
        clone = histogram.scaled(1.5)
        assert clone.singleton_budget == histogram.singleton_budget == 29
        assert clone.maintenance_operations == histogram.maintenance_operations
        assert clone._since_restructure == histogram._since_restructure
