"""Equivalence suite: one shared harvest integral vs. per-sensor loops.

A scenario's nodes share one solar harvester, so a harvest window is
integrated once for the whole network and a scenario's initial charges
come from one array call of ``SolarDayProfile.energy_density``.  Both
promise *bit-identical* results to the per-sensor loops they replaced
(:mod:`tests.oracles`), so every comparison here is exact ``==``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.energy.solar import cloudy_profile, sunny_profile
from repro.sim import ScenarioConfig, simulate_tours
from repro.sim.algorithms import get_algorithm
from tests.oracles import (
    energy_density_reference,
    initial_charges_reference,
    simulate_tours_reference,
)

HOUR = 3600.0
ACCUMULATION_HOURS = ((0.0, 1.0), (0.0, 0.25), (0.5, 6.0), (0.0, 0.0))


@pytest.mark.parametrize("weather", ["sunny", "cloudy", "none"])
@pytest.mark.parametrize("num_sensors", [0, 1, 30, 100, 600])
def test_initial_charges_match_per_sensor_integrals(weather, num_sensors):
    for seed, hours in itertools.product(range(12), ACCUMULATION_HOURS):
        config = ScenarioConfig(
            num_sensors=num_sensors, weather=weather, accumulation_hours=hours
        )
        got = config.build(seed=seed).network.charges()
        want = initial_charges_reference(config, seed)
        assert got.shape == want.shape == (num_sensors,)
        assert got.tolist() == want.tolist(), (seed, hours)


@pytest.mark.parametrize("make_profile", [sunny_profile, lambda: cloudy_profile(seed=0)])
def test_energy_density_windows_match_one_window_integrals(make_profile):
    profile = make_profile()
    rng = np.random.default_rng(5)
    end = 12.0 * HOUR
    # Random, repeated, zero-length and sub-resolution windows.
    starts = np.concatenate(
        [end - rng.uniform(0.0, 6.0, size=40) * HOUR, [end, end, end - 30.0, end - 60.0]]
    )
    got = profile.energy_density(starts, end)
    assert isinstance(got, np.ndarray) and got.shape == starts.shape
    assert got.tolist() == [energy_density_reference(profile, s, end) for s in starts]
    # The scalar call is the one-window case of the same code.
    for start in starts[:5].tolist() + [end]:
        value = profile.energy_density(start, end)
        assert type(value) is float
        assert value == energy_density_reference(profile, start, end)
    assert profile.energy_density(np.zeros(0), end).shape == (0,)


def test_energy_density_rejects_any_reversed_window():
    with pytest.raises(ValueError, match="t_start"):
        sunny_profile().energy_density(np.array([1.0, 7.0, 3.0]), 5.0)


@pytest.mark.parametrize("weather", ["sunny", "cloudy"])
def test_simulate_tours_matches_per_sensor_energy_update(weather):
    """Eight tours from 17:00 with a 3 h rest (dusk, a draining night,
    the next morning): every battery charge and every energy array."""
    config = ScenarioConfig(num_sensors=100, weather=weather, start_time=17 * HOUR)
    algorithm = get_algorithm("Offline_Appro")
    scenario = config.build(seed=3)
    want = simulate_tours_reference(scenario, algorithm, 8, rest_time=3 * HOUR)
    got = simulate_tours(scenario, algorithm, 8, rest_time=3 * HOUR).tours
    assert len(got) == len(want) == 8
    for tour, expected in zip(got, want):
        assert tour.collected_bits == expected["collected_bits"]
        for key in ("budgets", "energy_spent", "energy_harvested", "energy_spilled"):
            assert np.asarray(getattr(tour, key)).tolist() == expected[key].tolist(), key
    # The tours harvested something and spilled nothing at night.
    assert sum(t.energy_harvested.sum() for t in got) > 0
    assert scenario.network.charges().tolist() == want[-1]["charges"].tolist()


def test_scenario_nodes_share_one_harvester():
    network = ScenarioConfig(num_sensors=20).build(seed=1).network
    gain = network.harvester.energy(10 * HOUR, 11 * HOUR)
    assert network.harvest(10 * HOUR, 11 * HOUR).tolist() == [gain] * 20
    assert network.harvest(0.0, 0.0).tolist() == [0.0] * 20
    none = ScenarioConfig(num_sensors=5, weather="none").build(seed=1).network
    assert none.harvester is None
    assert none.harvest(10 * HOUR, 11 * HOUR).tolist() == [0.0] * 5
