"""Tests for work-unit accounting and the simulated clock."""

import dataclasses
import pickle

import pytest

from repro.engine.cost import CostModel, ExecutionMetrics, SimulatedClock


class TestCostModel:
    def test_pickle_round_trip_is_equal_and_slotted(self):
        """A model a sharded worker unpickles equals the sender's and has no
        instance dict, so its weights stay on the fast attribute path."""
        model = CostModel(hash_probe=2.0, seconds_per_unit=1.0e-4)
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert not hasattr(clone, "__dict__")
        with pytest.raises(TypeError):
            vars(clone)
        assert dataclasses.replace(clone, tuple_read=3.0).tuple_read == 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.hash_probe = 1.0  # type: ignore[misc]


class TestExecutionMetrics:
    def test_work_uses_weights(self):
        metrics = ExecutionMetrics(hash_inserts=10, comparisons=4)
        model = CostModel(hash_insert=2.0, comparison=0.5)
        assert metrics.work(model) == pytest.approx(10 * 2.0 + 4 * 0.5)

    def test_work_default_model(self):
        metrics = ExecutionMetrics(tuples_read=3)
        assert metrics.work() == pytest.approx(3 * CostModel().tuple_read)

    def test_work_pairs_each_counter_with_its_own_weight(self):
        """``work()`` is the only weighted sum (every clock sync calls it):
        eight distinct weights make a counter multiplied by its neighbour's
        weight visible, and the scheduling counter ``batches_read`` weighs
        nothing."""
        weight_of = {
            "tuples_read": "tuple_read",
            "hash_inserts": "hash_insert",
            "hash_probes": "hash_probe",
            "comparisons": "comparison",
            "predicate_evals": "predicate_eval",
            "tuple_copies": "tuple_copy",
            "aggregate_updates": "aggregate_update",
            "tuples_output": "tuple_output",
        }
        assert list(ExecutionMetrics().as_dict()) == [*weight_of, "batches_read"]
        model = CostModel(
            **{name: 1.0 + i / 16 for i, name in enumerate(weight_of.values())}
        )
        for counter, weight in weight_of.items():
            assert ExecutionMetrics(**{counter: 3}).work(model) == 3 * getattr(
                model, weight
            )
        assert ExecutionMetrics(batches_read=3).work(model) == 0.0
        # seconds_per_unit converts work to time; it is not a work weight.
        everything = ExecutionMetrics(**dict.fromkeys([*weight_of, "batches_read"], 1))
        assert everything.work(model) == sum(1.0 + i / 16 for i in range(8))

    def test_snapshot_is_independent(self):
        metrics = ExecutionMetrics(hash_probes=1)
        snap = metrics.snapshot()
        metrics.hash_probes += 5
        assert snap.hash_probes == 1

    def test_merge_adds_counters(self):
        a = ExecutionMetrics(tuples_read=1)
        b = ExecutionMetrics(tuples_read=2, comparisons=3)
        a.merge(b)
        assert a.tuples_read == 3 and a.comparisons == 3

    def test_as_dict_round_trip(self):
        metrics = ExecutionMetrics(tuple_copies=7)
        assert ExecutionMetrics(**metrics.as_dict()) == metrics


class TestSimulatedClock:
    def test_charge_advances_cpu_time(self):
        clock = SimulatedClock(CostModel(seconds_per_unit=0.001))
        clock.charge(100, 0.0)
        assert clock.now == pytest.approx(0.1)
        assert clock.cpu_time == pytest.approx(0.1)
        assert clock.wait_time == 0.0

    def test_wait_until_future(self):
        clock = SimulatedClock()
        stalled = clock.wait_until(1.5)
        assert stalled == pytest.approx(1.5)
        assert clock.now == pytest.approx(1.5)
        assert clock.wait_time == pytest.approx(1.5)

    def test_wait_until_past_is_noop(self):
        clock = SimulatedClock()
        clock.charge(10_000, 0.0)
        before = clock.now
        assert clock.wait_until(before / 2) == 0.0
        assert clock.now == before

    def test_charge_is_exact_however_grouped(self):
        """Between stalls ``now`` is one product of the cumulative work, so
        one charge and many partial charges of the same work agree to the
        last bit — a per-charge float sum does not (0.1 s ten times)."""
        model = CostModel(seconds_per_unit=0.1)
        coarse, fine = SimulatedClock(model), SimulatedClock(model)
        coarse.charge(10.0, 0.0)
        for units in range(10):
            fine.charge(units + 1.0, float(units))
        assert repr(fine.now) == repr(coarse.now) == "1.0"
        assert sum([0.1] * 10) != 1.0

    def test_wait_moves_the_anchor(self):
        clock = SimulatedClock(CostModel(seconds_per_unit=0.5))
        clock.charge(2.0, 0.0)
        clock.wait_until(4.0)
        clock.charge(3.0, 2.0)
        assert (clock.now, clock.wait_time, clock.cpu_time) == (4.5, 3.0, 1.5)

    def test_a_foreign_since_charges_its_own_delta(self):
        """Two metrics objects on one clock (a shared serving clock): a
        charge whose ``since`` is not the last charged work adds its delta."""
        clock = SimulatedClock(CostModel(seconds_per_unit=1.0))
        clock.charge(5.0, 0.0)
        clock.charge(2.0, 0.0)
        clock.charge(3.0, 2.0)
        assert clock.now == 8.0

    def test_snapshot(self):
        clock = SimulatedClock()
        clock.charge(1, 0.0)
        snap = clock.snapshot()
        assert set(snap) == {"now", "cpu_time", "wait_time"}
