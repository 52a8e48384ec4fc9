"""Tests for order detection, distinct counting, uniqueness and Zipf sampling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import feed
from repro.stats.distinct import DistinctCounter, UniquenessDetector
from repro.stats.order_detector import OrderDetector, OrderState
from repro.stats.zipf import ZipfSampler, zipf_weights


class TestOrderDetector:
    def test_ascending_stream(self):
        detector = OrderDetector()
        feed(detector, range(100))
        assert detector.state() is OrderState.ASCENDING
        assert detector.is_sorted()
        assert detector.ascending_violations == 0

    def test_descending_stream(self):
        detector = OrderDetector()
        feed(detector, range(100, 0, -1))
        assert detector.state() is OrderState.DESCENDING

    def test_unordered_stream(self):
        detector = OrderDetector()
        feed(detector, [5, 1, 9, 2, 8, 3])
        assert detector.state() is OrderState.UNORDERED
        assert not detector.is_sorted()

    def test_unknown_before_two_values(self):
        detector = OrderDetector()
        assert detector.state() is OrderState.UNKNOWN
        detector.add(1)
        assert detector.state() is OrderState.UNKNOWN

    def test_tolerance_allows_small_disorder(self):
        values = list(range(100))
        values[10], values[11] = values[11], values[10]
        strict, tolerant = OrderDetector(), OrderDetector(tolerance=0.05)
        feed(strict, values)
        feed(tolerant, values)
        assert strict.state() is OrderState.UNORDERED
        assert tolerant.state() is OrderState.ASCENDING

    def test_min_max_tracking(self):
        detector = OrderDetector()
        feed(detector, [5, 3, 9])
        assert detector.min_value == 3 and detector.max_value == 9

    def test_progress_fraction_for_sorted_stream(self):
        detector = OrderDetector()
        feed(detector, range(0, 500))
        assert detector.progress_fraction(0, 1000) == pytest.approx(0.499)

    def test_progress_fraction_undefined_for_unordered(self):
        detector = OrderDetector()
        feed(detector, [5, 1, 9])
        assert detector.progress_fraction(0, 10) is None

    def test_progress_fraction_is_monotone_under_tolerance(self):
        """Regression: progress used to track ``last_value``, so with
        ``tolerance > 0`` a late out-of-order low arrival made the estimate
        jump backwards (e.g. from 0.8 down to 0.1) even though the stream
        stayed classified as ASCENDING."""
        detector = OrderDetector(tolerance=0.05)
        feed(detector, range(0, 80))  # advanced to 79 of [0, 100]
        before = detector.progress_fraction(0, 100)
        assert before == pytest.approx(0.79)
        detector.add(10)  # one straggler, stream still ASCENDING
        assert detector.state() is OrderState.ASCENDING
        after = detector.progress_fraction(0, 100)
        assert after == pytest.approx(0.79)
        assert after >= before

    def test_progress_fraction_monotone_over_noisy_stream(self):
        detector = OrderDetector(tolerance=0.1)
        values = list(range(100))
        values[30], values[60], values[90] = 2, 5, 1  # sparse stragglers
        last = 0.0
        for value in values:
            detector.add(value)
            fraction = detector.progress_fraction(0, 120)
            if fraction is not None:
                assert fraction >= last
                last = fraction


class TestDistinctCounter:
    def test_exact_mode(self):
        counter = DistinctCounter()
        feed(counter, [1, 2, 2, 3, 3, 3])
        assert counter.estimate() == 3
        assert counter.exact

    def test_degrades_to_estimate(self):
        counter = DistinctCounter(max_exact=10)
        feed(counter, range(1000))
        assert not counter.exact
        assert counter.estimate() == pytest.approx(1000, rel=0.25)


class TestUniquenessDetector:
    def test_sorted_unique(self):
        detector = UniquenessDetector(assume_sorted=True)
        feed(detector, [1, 2, 3, 4])
        assert detector.is_unique()

    def test_sorted_duplicate_detected(self):
        detector = UniquenessDetector(assume_sorted=True)
        feed(detector, [1, 2, 2, 3])
        assert not detector.is_unique()

    def test_unsorted_mode(self):
        detector = UniquenessDetector(assume_sorted=False)
        feed(detector, [3, 1, 2])
        assert detector.is_unique()
        detector.add(1)
        assert not detector.is_unique()


class TestZipf:
    def test_weights_shape(self):
        weights = zipf_weights(4, 1.0)
        assert weights == pytest.approx([1.0, 0.5, 1 / 3, 0.25])
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(5, -1.0)

    def test_deterministic_given_seed(self):
        a, b = ZipfSampler(100, z=0.5, seed=9), ZipfSampler(100, z=0.5, seed=9)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_zero_exponent_is_roughly_uniform(self):
        sampler = ZipfSampler(10, z=0.0, seed=1)
        samples = [sampler.sample() for _ in range(5000)]
        counts = {value: samples.count(value) for value in set(samples)}
        assert len(counts) == 10
        assert max(counts.values()) < 2.0 * min(counts.values())

    def test_skew_concentrates_mass(self):
        sampler = ZipfSampler(1000, z=1.0, seed=1, shuffle_ranks=False)
        samples = [sampler.sample() for _ in range(5000)]
        top_value_share = samples.count(1) / len(samples)
        assert top_value_share > 0.05  # far above the uniform 0.001

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            ZipfSampler([], z=0.5)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=200))
def test_property_order_detector_matches_sortedness(values):
    detector = OrderDetector()
    feed(detector, values)
    is_ascending = all(values[i] <= values[i + 1] for i in range(len(values) - 1))
    if len(values) <= 1:
        assert detector.state() is OrderState.UNKNOWN
    elif is_ascending:
        assert detector.state() in (OrderState.ASCENDING, OrderState.DESCENDING)
    else:
        assert detector.ascending_violations > 0
