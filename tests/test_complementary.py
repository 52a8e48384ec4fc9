"""Tests for the complementary join pair (paper Section 5)."""

import pytest

from helpers import assert_same_bag, reference_join
from repro.core.complementary import ComplementaryJoinPair, PipelinedHashJoinBaseline
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.workloads.perturb import reorder_fraction

LEFT_SCHEMA = Schema.from_names(["lk", "lv"], relation="bigtab")
RIGHT_SCHEMA = Schema.from_names(["rk", "rv"], relation="smalltab")


def sorted_inputs(n=400, fanout=3):
    left = Relation(
        "bigtab", LEFT_SCHEMA, [(i // fanout, f"L{i}") for i in range(n * fanout)]
    )
    right = Relation("smalltab", RIGHT_SCHEMA, [(i, f"R{i}") for i in range(n)])
    return left, right


class TestCorrectness:
    def test_baseline_matches_reference(self):
        left, right = sorted_inputs()
        report = PipelinedHashJoinBaseline(
            left, right, "lk", "rk", collect_outputs=True
        ).execute()
        assert_same_bag(report.details["outputs"], reference_join(left, right, "lk", "rk"))

    @pytest.mark.parametrize("use_queue", [False, True])
    @pytest.mark.parametrize("fraction", [0.0, 0.01, 0.1, 0.5])
    def test_complementary_join_output_matches_reference(self, use_queue, fraction):
        left, right = sorted_inputs(n=200)
        left = reorder_fraction(left, fraction, seed=1)
        right = reorder_fraction(right, fraction, seed=2)
        expected = reference_join(left, right, "lk", "rk")
        report = ComplementaryJoinPair(
            left,
            right,
            "lk",
            "rk",
            use_priority_queue=use_queue,
            queue_capacity=64,
            collect_outputs=True,
        ).execute()
        assert report.output_count == len(expected)
        assert_same_bag(report.details["outputs"], expected)
        assert sum(report.outputs_by_component.values()) == len(expected)

    def test_empty_inputs(self):
        left = Relation("bigtab", LEFT_SCHEMA, [])
        right = Relation("smalltab", RIGHT_SCHEMA, [(1, "R")])
        report = ComplementaryJoinPair(left, right, "lk", "rk").execute()
        assert report.output_count == 0


class TestRoutingBehaviour:
    def test_fully_sorted_data_goes_to_merge(self):
        left, right = sorted_inputs()
        report = ComplementaryJoinPair(left, right, "lk", "rk").execute()
        assert report.outputs_by_component["merge"] == report.output_count
        assert report.outputs_by_component["hash"] == 0
        assert report.outputs_by_component["stitch"] == 0
        assert report.routed_by_component["hash_left"] == 0

    def test_naive_routing_collapses_under_small_perturbation(self):
        left, right = sorted_inputs()
        left = reorder_fraction(left, 0.05, seed=3)
        right = reorder_fraction(right, 0.05, seed=4)
        report = ComplementaryJoinPair(left, right, "lk", "rk").execute()
        # Most output now comes from the hash side or stitch-up, not the merge join.
        assert report.outputs_by_component["merge"] < 0.5 * report.output_count

    def test_priority_queue_repairs_small_perturbation(self):
        left, right = sorted_inputs()
        left = reorder_fraction(left, 0.02, seed=3)
        right = reorder_fraction(right, 0.02, seed=4)
        naive = ComplementaryJoinPair(left, right, "lk", "rk").execute()
        repaired = ComplementaryJoinPair(
            left, right, "lk", "rk", use_priority_queue=True, queue_capacity=128
        ).execute()
        assert (
            repaired.outputs_by_component["merge"]
            > naive.outputs_by_component["merge"]
        )
        assert repaired.outputs_by_component["merge"] > 0.7 * repaired.output_count

    def test_priority_queue_high_water_mark_bounded(self):
        left, right = sorted_inputs(n=100)
        pair = ComplementaryJoinPair(
            left, right, "lk", "rk", use_priority_queue=True, queue_capacity=32
        )
        pair.execute()
        high_water = pair._reorderers["left"].buffered_high_water
        assert high_water <= 33  # capacity + the tuple being pushed


class TestPerformanceShape:
    """The qualitative results of Figure 5, expressed as work-unit orderings."""

    def test_complementary_beats_hash_join_on_sorted_data(self):
        left, right = sorted_inputs(n=600)
        hash_report = PipelinedHashJoinBaseline(left, right, "lk", "rk").execute()
        comp_report = ComplementaryJoinPair(left, right, "lk", "rk").execute()
        assert comp_report.simulated_seconds < hash_report.simulated_seconds

    def test_naive_beats_priority_queue_on_fully_sorted_data(self):
        left, right = sorted_inputs(n=600)
        naive = ComplementaryJoinPair(left, right, "lk", "rk").execute()
        queued = ComplementaryJoinPair(
            left, right, "lk", "rk", use_priority_queue=True
        ).execute()
        assert naive.simulated_seconds < queued.simulated_seconds

    def test_priority_queue_beats_naive_on_slightly_perturbed_data(self):
        left, right = sorted_inputs(n=600)
        left = reorder_fraction(left, 0.01, seed=5)
        right = reorder_fraction(right, 0.01, seed=6)
        naive = ComplementaryJoinPair(left, right, "lk", "rk").execute()
        queued = ComplementaryJoinPair(
            left, right, "lk", "rk", use_priority_queue=True
        ).execute()
        assert queued.simulated_seconds < naive.simulated_seconds

    def test_summary_fields(self):
        left, right = sorted_inputs(n=50)
        report = ComplementaryJoinPair(left, right, "lk", "rk").execute()
        summary = report.summary()
        assert summary["strategy"] == "complementary_naive"
        assert summary["outputs"] == report.output_count
        assert report.work() > 0
