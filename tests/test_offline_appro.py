"""Offline_Appro (Algorithm 1): feasibility, guarantee, reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import brute_force_optimum
from repro.core.offline_appro import offline_appro
from tests.conftest import make_instance, random_instance
from tests.oracles import dcmp_to_gap, gap_bins, local_ratio_gap, sensor_records


class TestReduction:
    def test_bins_mirror_sensors(self, rng):
        inst = random_instance(rng, num_slots=8, num_sensors=3)
        gap = dcmp_to_gap(inst)
        assert gap.num_bins == inst.num_sensors
        for b, data in zip(gap_bins(gap), sensor_records(inst)):
            assert b.capacity == data.budget
            np.testing.assert_array_equal(b.items, data.slot_indices())
            np.testing.assert_allclose(b.profits, data.rates * inst.slot_duration)
            np.testing.assert_allclose(b.weights, data.powers * inst.slot_duration)

    def test_gap_solution_equals_algorithm(self, rng):
        inst = random_instance(rng, num_slots=8, num_sensors=3)
        gap = dcmp_to_gap(inst)
        sol = local_ratio_gap(gap, bin_order=inst.sensor_order())
        alloc = offline_appro(inst)
        assert alloc.collected_bits(inst) == pytest.approx(sol.profit)


class TestGuarantees:
    def test_feasible_on_random_instances(self, rng):
        for _ in range(20):
            inst = random_instance(rng, num_slots=12, num_sensors=5)
            offline_appro(inst).check_feasible(inst)

    @pytest.mark.parametrize("method", ["few_weights"])
    def test_half_of_optimum_with_exact_knapsack(self, rng, method):
        for _ in range(15):
            inst = random_instance(rng, num_slots=8, num_sensors=3, max_window=5)
            opt = brute_force_optimum(inst).collected_bits(inst)
            got = offline_appro(inst, knapsack_method=method).collected_bits(inst)
            assert got >= opt / 2.0 - 1e-9

    def test_paper_ratio_with_fptas(self, rng):
        epsilon = 0.5
        for _ in range(15):
            inst = random_instance(rng, num_slots=8, num_sensors=3, max_window=5)
            opt = brute_force_optimum(inst).collected_bits(inst)
            got = offline_appro(
                inst, knapsack_method="fptas", epsilon=epsilon
            ).collected_bits(inst)
            assert got >= opt / (2.0 + epsilon) - 1e-9

    def test_third_of_optimum_with_greedy(self, rng):
        for _ in range(15):
            inst = random_instance(rng, num_slots=8, num_sensors=3, max_window=5)
            opt = brute_force_optimum(inst).collected_bits(inst)
            got = offline_appro(inst, knapsack_method="greedy").collected_bits(inst)
            assert got >= opt / 3.0 - 1e-9


class TestBehaviour:
    def test_single_sensor_exact(self):
        """With one sensor the algorithm degenerates to its knapsack."""
        inst = make_instance(
            4,
            1.0,
            [
                {
                    "window": (0, 3),
                    "rates": [60.0, 100.0, 120.0, 1.0],
                    "powers": [10.0, 20.0, 30.0, 40.0],
                    "budget": 50.0,
                }
            ],
        )
        alloc = offline_appro(inst)
        assert alloc.collected_bits(inst) == pytest.approx(220.0)

    def test_contended_slot_goes_once(self):
        inst = make_instance(
            1,
            1.0,
            [
                {"window": (0, 0), "rates": [5.0], "powers": [1.0], "budget": 2.0},
                {"window": (0, 0), "rates": [7.0], "powers": [1.0], "budget": 2.0},
            ],
        )
        alloc = offline_appro(inst)
        assert alloc.num_assigned() == 1

    def test_zero_budget_sensor_gets_nothing(self):
        inst = make_instance(
            2,
            1.0,
            [
                {"window": (0, 1), "rates": [5.0, 5.0], "powers": [1.0, 1.0], "budget": 0.0},
                {"window": (0, 1), "rates": [1.0, 1.0], "powers": [1.0, 1.0], "budget": 5.0},
            ],
        )
        alloc = offline_appro(inst)
        assert alloc.slots_of(0).size == 0
        assert alloc.slots_of(1).size == 2

    def test_empty_instance(self):
        inst = make_instance(
            3, 1.0, [{"window": None, "rates": [], "powers": [], "budget": 1.0}]
        )
        alloc = offline_appro(inst)
        assert alloc.num_assigned() == 0

    def test_deterministic(self, rng):
        inst = random_instance(rng, num_slots=10, num_sensors=4)
        a = offline_appro(inst)
        b = offline_appro(inst)
        np.testing.assert_array_equal(a.slot_owner, b.slot_owner)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_half_optimum_property(seed):
    """Hypothesis-driven: the 1/2 guarantee holds on arbitrary seeds."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=6, num_sensors=3, max_window=4)
    opt = brute_force_optimum(inst).collected_bits(inst)
    got = offline_appro(inst).collected_bits(inst)
    assert got >= opt / 2.0 - 1e-9
