"""Instance/allocation JSON round-trips."""

import json

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.offline_appro import offline_appro
from repro.core.serialize import (
    allocation_from_dict,
    allocation_to_dict,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
)
from repro.sim.scenario import ScenarioConfig
from tests.conftest import random_instance


def assert_instances_equal(a, b):
    assert a.num_slots == b.num_slots
    assert a.slot_duration == b.slot_duration
    assert a.num_sensors == b.num_sensors
    for got, want in zip(a.window_bounds(), b.window_bounds()):
        np.testing.assert_array_equal(got, want)
    for name in ("rates", "powers", "offsets"):
        np.testing.assert_array_equal(getattr(a.flat_pairs(), name), getattr(b.flat_pairs(), name))
    np.testing.assert_array_equal(a.budgets_array(), b.budgets_array())


def test_instance_dict_roundtrip(rng):
    inst = random_instance(rng, num_slots=12, num_sensors=5)
    assert_instances_equal(inst, instance_from_dict(instance_to_dict(inst)))


def test_instance_json_roundtrip(rng):
    inst = random_instance(rng, num_slots=12, num_sensors=5)
    text = instance_to_json(inst, indent=2)
    json.loads(text)  # valid JSON
    assert_instances_equal(inst, instance_from_json(text))


def test_scenario_instance_roundtrip_preserves_solution():
    """A solved-and-reloaded instance yields the identical allocation."""
    scenario = ScenarioConfig(num_sensors=40, path_length=2000.0).build(seed=4)
    inst = scenario.instance()
    reloaded = instance_from_json(instance_to_json(inst))
    a = offline_appro(inst)
    b = offline_appro(reloaded)
    np.testing.assert_array_equal(a.slot_owner, b.slot_owner)


def test_allocation_roundtrip(rng):
    inst = random_instance(rng, num_slots=10, num_sensors=4)
    alloc = offline_appro(inst)
    back = allocation_from_dict(allocation_to_dict(alloc))
    np.testing.assert_array_equal(alloc.slot_owner, back.slot_owner)
    back.check_feasible(inst)


def test_unreachable_sensor_roundtrip():
    from tests.conftest import make_instance

    inst = make_instance(
        3, 1.0, [{"window": None, "rates": [], "powers": [], "budget": 1.0}]
    )
    back = instance_from_dict(instance_to_dict(inst))
    assert back.window_of(0) is None


def _two_sensor_doc():
    """Sensor 0 sees slots 0..1, sensor 1 slots 2..4, over 6 slots."""
    return {
        "format": "repro.dcmp_instance",
        "version": 1,
        "num_slots": 6,
        "slot_duration": 1.0,
        "sensors": [
            {"window": [0, 1], "rates": [10.0, 20.0], "powers": [0.3, 0.3], "budget": 1.0},
            {"window": [2, 4], "rates": [5.0, 5.0, 5.0], "powers": [0.2, 0.2, 0.2], "budget": 2.0},
        ],
    }


def _mismatched_lengths(doc):
    # Three rates for sensor 0's two slots, two for sensor 1's three:
    # the totals still match the windows' five slots.
    doc["sensors"][0]["rates"] = [10.0, 20.0, 30.0]
    doc["sensors"][0]["powers"] = [0.3, 0.3, 0.3]
    doc["sensors"][1]["rates"] = [5.0, 5.0]
    doc["sensors"][1]["powers"] = [0.2, 0.2]


def _nan_rate(doc):
    doc["sensors"][1]["rates"][1] = float("nan")


def _negative_power(doc):
    doc["sensors"][0]["powers"][0] = -0.1


def _window_past_horizon(doc):
    doc["sensors"][1]["window"] = [4, 6]


def _start_after_end(doc):
    doc["sensors"][1]["window"] = [4, 2]


@pytest.mark.parametrize(
    "corrupt",
    [_mismatched_lengths, _nan_rate, _negative_power, _window_past_horizon, _start_after_end],
)
def test_malformed_document_rejected(corrupt):
    doc = _two_sensor_doc()
    instance_from_dict(doc)  # the uncorrupted document loads
    corrupt(doc)
    with pytest.raises(ValueError):
        instance_from_json(json.dumps(doc))


@pytest.mark.parametrize("budget", [float("inf"), float("nan")])
def test_non_finite_budget_rejected_naming_the_sensor(budget):
    """Caught when the document loads, not as an overflow in the
    knapsack or a linprog error in the certificate."""
    doc = _two_sensor_doc()
    doc["sensors"][1]["budget"] = budget
    with pytest.raises(ValueError, match="sensor 1 budget"):
        instance_from_json(json.dumps(doc))


def test_wrong_format_rejected():
    with pytest.raises(ValueError, match="format"):
        instance_from_dict({"format": "something_else", "version": 1})
    with pytest.raises(ValueError, match="format"):
        allocation_from_dict({"format": "nope", "version": 1})


def test_wrong_version_rejected(rng):
    inst = random_instance(rng, num_slots=5, num_sensors=2)
    doc = instance_to_dict(inst)
    doc["version"] = 99
    with pytest.raises(ValueError, match="version"):
        instance_from_dict(doc)


class TestScenarioConfigRoundtrip:
    def test_default_roundtrip_through_json(self):
        config = ScenarioConfig()
        doc = json.loads(json.dumps(config.to_dict()))
        assert ScenarioConfig.from_dict(doc) == config

    def test_non_default_roundtrip(self):
        config = ScenarioConfig(
            num_sensors=42,
            path_length=2500.0,
            sink_speed=10.0,
            weather="cloudy",
            accumulation_hours=(0.5, 2.0),
            fixed_power=0.3,
            gamma_override=7,
        )
        back = ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert back == config
        assert isinstance(back.accumulation_hours, tuple)

    def test_partial_dict_uses_defaults(self):
        config = ScenarioConfig.from_dict({"num_sensors": 10})
        assert config.num_sensors == 10
        assert config.sink_speed == ScenarioConfig().sink_speed

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ValueError, match="bogus"):
            ScenarioConfig.from_dict({"bogus": 1})

    def test_type_errors_name_the_field(self):
        with pytest.raises(ValueError, match="num_sensors"):
            ScenarioConfig.from_dict({"num_sensors": "many"})
        with pytest.raises(ValueError, match="num_sensors"):
            ScenarioConfig.from_dict({"num_sensors": True})
        with pytest.raises(ValueError, match="sink_speed"):
            ScenarioConfig.from_dict({"sink_speed": "fast"})
        with pytest.raises(ValueError, match="weather"):
            ScenarioConfig.from_dict({"weather": 3})
        with pytest.raises(ValueError, match="accumulation_hours"):
            ScenarioConfig.from_dict({"accumulation_hours": [1.0]})
        with pytest.raises(ValueError, match="fixed_power"):
            ScenarioConfig.from_dict({"fixed_power": "0.3"})

    def test_range_errors_still_apply(self):
        with pytest.raises(ValueError, match="num_sensors"):
            ScenarioConfig.from_dict({"num_sensors": -1})
        with pytest.raises(ValueError, match="weather"):
            ScenarioConfig.from_dict({"weather": "hail"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            ScenarioConfig.from_dict([("num_sensors", 3)])

    def test_roundtrip_builds_identical_topology(self):
        config = ScenarioConfig(num_sensors=25, path_length=1200.0)
        back = ScenarioConfig.from_dict(config.to_dict())
        a = config.build(seed=5)
        b = back.build(seed=5)
        np.testing.assert_array_equal(a.network.positions, b.network.positions)
