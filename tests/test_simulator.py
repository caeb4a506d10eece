"""Tour execution and multi-tour energy evolution."""

import numpy as np
import pytest

from repro.sim.algorithms import get_algorithm
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import run_tour, simulate_tours


@pytest.fixture
def scenario():
    return ScenarioConfig(num_sensors=40, path_length=2000.0).build(seed=10)


class TestRunTour:
    def test_mutate_false_preserves_batteries(self, scenario):
        before = scenario.network.charges()
        run_tour(scenario, get_algorithm("Offline_Appro"), mutate=False)
        np.testing.assert_allclose(scenario.network.charges(), before)

    def test_mutate_true_applies_ledger(self):
        scenario = ScenarioConfig(num_sensors=40, path_length=2000.0).build(seed=11)
        before = scenario.network.charges()
        result = run_tour(scenario, get_algorithm("Offline_Appro"), mutate=True)
        after = scenario.network.charges()
        expected = np.minimum(
            before - result.energy_spent + result.energy_harvested - result.energy_spilled,
            10_000.0,
        )
        np.testing.assert_allclose(after, expected, atol=1e-6)

    def test_result_fields(self, scenario):
        result = run_tour(scenario, get_algorithm("Online_Appro"), mutate=False)
        assert result.collected_bits > 0
        assert result.collected_megabits == pytest.approx(result.collected_bits / 1e6)
        assert result.messages is not None
        assert result.wall_time > 0
        assert result.energy_spent.shape == (40,)

    def test_offline_algorithms_have_no_messages(self, scenario):
        result = run_tour(scenario, get_algorithm("Offline_Appro"), mutate=False)
        assert result.messages is None

    def test_negative_rest_time_rejected(self, scenario):
        with pytest.raises(ValueError):
            run_tour(scenario, get_algorithm("Offline_Appro"), rest_time=-1.0)

    def test_allocation_feasible_for_reported_budgets(self, scenario):
        result = run_tour(scenario, get_algorithm("Offline_Appro"), mutate=False)
        assert np.all(result.energy_spent <= result.budgets + 1e-9)


class TestSimulateTours:
    def test_tour_count(self):
        scenario = ScenarioConfig(num_sensors=30, path_length=2000.0).build(seed=12)
        result = simulate_tours(scenario, get_algorithm("Offline_Appro"), num_tours=3)
        assert result.num_tours == 3
        assert [t.tour_index for t in result.tours] == [0, 1, 2]

    def test_negative_tours_rejected(self):
        scenario = ScenarioConfig(num_sensors=10, path_length=2000.0).build(seed=13)
        with pytest.raises(ValueError):
            simulate_tours(scenario, get_algorithm("Offline_Appro"), num_tours=-1)

    def test_budgets_evolve_across_tours(self):
        """Tour budgets follow the battery recurrence: spent energy
        depletes, harvest replenishes."""
        scenario = ScenarioConfig(num_sensors=30, path_length=2000.0).build(seed=14)
        result = simulate_tours(scenario, get_algorithm("Offline_Appro"), num_tours=2)
        t0, t1 = result.tours
        expected = np.minimum(
            t0.budgets - t0.energy_spent + t0.energy_harvested - t0.energy_spilled,
            10_000.0,
        )
        np.testing.assert_allclose(t1.budgets, expected, atol=1e-6)

    def test_night_tours_deplete(self):
        """Without harvest (start at midnight), total stored energy is
        non-increasing across tours."""
        config = ScenarioConfig(
            num_sensors=30, path_length=2000.0, start_time=0.0
        )
        scenario = config.build(seed=15)
        result = simulate_tours(scenario, get_algorithm("Offline_Appro"), num_tours=3)
        totals = [t.budgets.sum() for t in result.tours]
        assert totals[0] >= totals[1] >= totals[2]

    def test_summary_totals(self):
        scenario = ScenarioConfig(num_sensors=20, path_length=2000.0).build(seed=16)
        result = simulate_tours(scenario, get_algorithm("Offline_Appro"), num_tours=2)
        summary = result.summary()
        assert summary["tours"] == 2.0
        assert summary["total_megabits"] == pytest.approx(
            sum(t.collected_megabits for t in result.tours)
        )
        assert summary["max_megabits"] >= summary["min_megabits"]

    def test_bits_per_tour_array(self):
        scenario = ScenarioConfig(num_sensors=20, path_length=2000.0).build(seed=17)
        result = simulate_tours(scenario, get_algorithm("Offline_Appro"), num_tours=2)
        assert result.bits_per_tour().shape == (2,)
        assert result.total_bits() == pytest.approx(result.bits_per_tour().sum())
        assert result.mean_bits() == pytest.approx(result.bits_per_tour().mean())
