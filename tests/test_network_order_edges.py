"""Edge-case coverage for the network models and the order detector.

Satellite of the batched-execution PR: the batched cursor leans on network
models for its prefetch/arrival logic, so their corner cases — zero-length
relations, single-tuple bursts, long disconnection windows — get explicit
tests, as do the order detector's degenerate streams (empty, all-equal keys,
strictly descending).
"""

from __future__ import annotations

import pytest

from helpers import feed
from repro.engine.pipelined import SourceCursor
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.network import (
    BurstyNetworkModel,
    ConstantRateNetworkModel,
    InstantNetworkModel,
)
from repro.sources.remote import RemoteSource
from repro.stats.order_detector import OrderDetector, OrderState


class TestNetworkModelEdges:
    @pytest.mark.parametrize(
        "model",
        [
            InstantNetworkModel(),
            ConstantRateNetworkModel(100.0, latency=0.5),
            BurstyNetworkModel(seed=5),
        ],
        ids=["instant", "constant", "bursty"],
    )
    def test_zero_tuples_yields_empty_schedule(self, model):
        assert list(model.arrival_times(0)) == []

    @pytest.mark.parametrize(
        "model",
        [
            InstantNetworkModel(),
            ConstantRateNetworkModel(100.0, latency=0.5),
            BurstyNetworkModel(seed=5),
        ],
        ids=["instant", "constant", "bursty"],
    )
    def test_single_tuple(self, model):
        arrivals = list(model.arrival_times(1))
        assert len(arrivals) == 1
        assert arrivals[0] >= 0.0

    def test_single_tuple_bursts(self):
        """mean_burst_tuples=1 degenerates to one tuple per burst: every gap
        can strike, yet the schedule stays non-decreasing and complete."""
        model = BurstyNetworkModel(
            burst_rate=1000.0, mean_burst_tuples=1, mean_gap_seconds=0.1, seed=3
        )
        arrivals = list(model.arrival_times(200))
        assert len(arrivals) == 200
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert arrivals[0] == pytest.approx(model.latency)

    def test_disconnection_windows(self):
        """Very long gaps model a link that repeatedly disconnects; the
        schedule must contain quiet windows of roughly that magnitude."""
        model = BurstyNetworkModel(
            burst_rate=10_000.0,
            mean_burst_tuples=10,
            mean_gap_seconds=5.0,
            latency=0.0,
            seed=11,
        )
        arrivals = list(model.arrival_times(100))
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert max(gaps) > 1.0, "expected at least one disconnection window"
        # Within a burst tuples are back to back.
        assert min(gaps) == pytest.approx(1.0 / model.burst_rate)

    def test_bursty_determinism_and_seed_sensitivity(self):
        def schedule(seed):
            return list(
                BurstyNetworkModel(mean_burst_tuples=8, seed=seed).arrival_times(64)
            )

        assert schedule(9) == schedule(9)
        assert schedule(9) != schedule(10)

    def test_constant_rate_validation(self):
        with pytest.raises(ValueError):
            ConstantRateNetworkModel(0.0)
        with pytest.raises(ValueError):
            BurstyNetworkModel(burst_rate=-1.0)
        with pytest.raises(ValueError):
            BurstyNetworkModel(mean_burst_tuples=0)
        with pytest.raises(ValueError):
            BurstyNetworkModel(mean_gap_seconds=-0.1)


class TestRemoteSourceEdges:
    def _empty_relation(self):
        return Relation("empty", Schema.from_names(["a", "b"]), [])

    def test_zero_length_relation_over_any_network(self):
        for network in (
            InstantNetworkModel(),
            ConstantRateNetworkModel(10.0),
            BurstyNetworkModel(seed=2),
        ):
            source = RemoteSource(self._empty_relation(), network)
            assert len(source) == 0
            assert list(source.open_stream()) == []
            assert list(source.open_stream_columns(8)) == []
            cursor = SourceCursor("empty", source)
            assert cursor.peek_arrival() is None
            assert cursor.read_batch(16) == ([], None)

    def test_single_tuple_relation(self):
        relation = Relation("one", Schema.from_names(["a"]), [(42,)])
        source = RemoteSource(relation, BurstyNetworkModel(seed=4))
        items = list(source.open_stream())
        assert len(items) == 1
        assert items[0][0] == (42,)
        assert items[0][1] >= 0.0


class TestOrderDetectorEdges:
    def test_empty_stream(self):
        detector = OrderDetector()
        assert detector.state() is OrderState.UNKNOWN
        assert not detector.is_sorted()
        assert detector.in_order_fraction() == 1.0
        assert detector.progress_fraction(0.0, 10.0) is None
        assert detector.min_value is None and detector.max_value is None

    def test_single_value_stream(self):
        detector = OrderDetector()
        detector.add(7)
        assert detector.state() is OrderState.UNKNOWN
        assert detector.min_value == detector.max_value == 7

    def test_all_equal_keys_count_as_sorted(self):
        detector = OrderDetector()
        feed(detector, [5, 5, 5, 5, 5])
        assert detector.state() is OrderState.ASCENDING
        assert detector.is_sorted()
        assert detector.ascending_violations == detector.descending_violations == 0
        # A constant stream has a zero-span domain: no progress estimate.
        assert detector.progress_fraction(5, 5) is None

    def test_strictly_descending_stream(self):
        detector = OrderDetector()
        feed(detector, [9, 7, 5, 3, 1])
        assert detector.state() is OrderState.DESCENDING
        assert detector.is_sorted()
        assert (detector.ascending_violations, detector.descending_violations) == (4, 0)
        # Progress extrapolation mirrors the high-water logic via min_value
        # for descending streams: the stream has descended all the way to
        # the bottom of [1, 9], so it is fully consumed.
        assert detector.progress_fraction(1, 9) == 1.0
        assert detector.min_value == 1 and detector.max_value == 9

    def test_tolerance_keeps_mostly_sorted_streams_sorted(self):
        strict = OrderDetector(tolerance=0.0)
        lenient = OrderDetector(tolerance=0.25)
        values = [1, 2, 3, 2, 4, 5, 6, 7, 8, 9]
        feed(strict, values)
        feed(lenient, values)
        assert strict.state() is OrderState.UNORDERED
        assert lenient.state() is OrderState.ASCENDING

    def test_progress_fraction_clamps_to_unit_interval(self):
        detector = OrderDetector()
        feed(detector, [2, 4, 6])
        assert detector.progress_fraction(0, 12) == pytest.approx(0.5)
        assert detector.progress_fraction(0, 4) == 1.0
        detector_low = OrderDetector()
        feed(detector_low, [-5, -4])
        assert detector_low.progress_fraction(0, 10) == 0.0
