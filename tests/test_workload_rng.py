"""RNG audit: every random draw in the workload machinery is explicitly seeded.

The differential harness compares engines on byte-for-byte identical data, so
any draw from the *module-level* ``random`` generator (whose state is global
and mutated by unrelated code) would silently break reproducibility.  These
tests pin the contract behaviorally: generation is bit-identical per seed and
the global generator's state is neither consumed nor disturbed.  The static
side of the contract — rejecting reintroduction of module-level draws at the
source level — is enforced project-wide by the ``determinism.module-random``
lint rule (``repro.analysis``), which replaced the regex scanner that used to
live here.
"""

from __future__ import annotations

import random

from helpers import displaced_fraction
from repro.sources.network import BurstyNetworkModel
from repro.workloads.generator import TPCHGenerator
from repro.workloads.perturb import reorder_fraction


def _generate_everything(seed: int):
    """Exercise every randomized code path of the workload machinery."""
    data = TPCHGenerator(scale_factor=0.0004, zipf_z=0.5, seed=seed).generate()
    reordered = reorder_fraction(data.orders, 0.25, seed=seed + 1)
    arrivals = list(BurstyNetworkModel(seed=seed + 3).arrival_times(50))
    return data, reordered, arrivals


class TestSeededReproducibility:
    def test_identical_output_for_identical_seed(self):
        first = _generate_everything(31)
        second = _generate_everything(31)
        for name in first[0].relations:
            assert first[0].relations[name].rows == second[0].relations[name].rows
        assert first[1].rows == second[1].rows
        assert first[2] == second[2]

    def test_different_seed_changes_output(self):
        assert (
            _generate_everything(31)[0].lineitem.rows
            != _generate_everything(32)[0].lineitem.rows
        )

    def test_global_random_state_is_untouched(self):
        """No module-level ``random`` draws: generation must neither consume
        nor reseed the global generator, and perturbing the global state must
        not change what gets generated."""
        random.seed(1234)
        expected_next = random.Random(1234).random()

        baseline = _generate_everything(7)
        assert random.random() == expected_next, (
            "workload generation consumed or reseeded the global random state"
        )

        # Scrambling the global state must not leak into generation either.
        random.seed(999)
        random.random()
        scrambled = _generate_everything(7)
        assert baseline[0].lineitem.rows == scrambled[0].lineitem.rows
        assert baseline[1].rows == scrambled[1].rows
        assert baseline[2] == scrambled[2]

    def test_perturbations_are_deterministic_and_effective(self, tiny_tpch):
        orders = tiny_tpch.orders
        once = reorder_fraction(orders, 0.5, seed=3)
        again = reorder_fraction(orders, 0.5, seed=3)
        other = reorder_fraction(orders, 0.5, seed=4)
        assert once.rows == again.rows
        assert once.rows != other.rows
        assert displaced_fraction(orders, once) > 0.2
