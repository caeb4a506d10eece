"""Multi-tour MaxMatch energy ledgers: reproducible, optimal, feasible.

Optimal matchings tie, so which slots a sensor wins, and therefore its
battery after the tour, depends on the solver's tie-break.  These tests
pin what does not depend on it: a run repeats tour for tour, every
``Offline_MaxMatch`` tour is optimal for the budgets it faced, and every
tour stays within those budgets.
"""

import numpy as np
import pytest

from repro.core.instance import DataCollectionInstance
from repro.core.offline_maxmatch import build_matching_edges
from repro.sim.algorithms import get_algorithm
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import simulate_tours
from tests.oracles import mcmf_b_matching

CONFIG = ScenarioConfig(num_sensors=30, path_length=1500.0, fixed_power=0.3)
NUM_TOURS = 4


def simulate(name):
    scenario = CONFIG.build(seed=7)
    result = simulate_tours(scenario, get_algorithm(name), NUM_TOURS, rest_time=3600.0)
    return scenario, result


def rebuilt_instance(scenario, tour):
    """The DCMP instance of ``tour``, rebuilt from the budgets it faced."""
    return DataCollectionInstance.from_network(
        scenario.network, scenario.trajectory, scenario.rate_table, tour.budgets
    )


@pytest.fixture(scope="module", params=["Offline_MaxMatch", "Online_MaxMatch"])
def ledger(request):
    return request.param, simulate(request.param)


def test_two_runs_give_identical_ledgers(ledger):
    name, (scenario, result) = ledger
    again_scenario, again = simulate(name)
    assert len(result.tours) == len(again.tours) == NUM_TOURS
    for tour, other in zip(result.tours, again.tours):
        np.testing.assert_array_equal(tour.budgets, other.budgets)
        assert tour.collected_bits == other.collected_bits
    np.testing.assert_array_equal(
        scenario.network.charges(), again_scenario.network.charges()
    )
    # The ledger moves between tours, so later tours see other budgets.
    assert not np.array_equal(result.tours[0].budgets, result.tours[-1].budgets)


def test_every_tour_feasible_against_its_budgets(ledger):
    _, (scenario, result) = ledger
    for tour in result.tours:
        tour.allocation.check_feasible(rebuilt_instance(scenario, tour))
        assert np.all(tour.energy_spent <= tour.budgets + 1e-9)


def test_offline_tours_hit_the_oracle_optimum():
    scenario, result = simulate("Offline_MaxMatch")
    for tour in result.tours:
        instance = rebuilt_instance(scenario, tour)
        edges, caps = build_matching_edges(instance, CONFIG.fixed_power)
        oracle = mcmf_b_matching(edges, caps, instance.num_slots)
        assert tour.collected_bits == pytest.approx(oracle.weight, rel=1e-9, abs=0.0)
