"""ScenarioConfig / Scenario construction."""

import numpy as np
import pytest

from repro.network.radio import CC2420_LIKE_TABLE, FixedPowerTable
from repro.planning import PlannerConfig
from repro.sim.scenario import PAPER_DEFAULTS, Scenario, ScenarioConfig
from repro.utils.validation import UnknownFieldError


class TestConfig:
    def test_paper_defaults(self):
        c = PAPER_DEFAULTS
        assert c.path_length == 10_000.0
        assert c.max_offset == 180.0
        assert c.battery_capacity == 10_000.0
        assert c.panel_area_mm2 == 100.0
        assert c.slot_duration == 1.0
        assert c.sink_speed == 5.0
        assert c.rate_table() is CC2420_LIKE_TABLE

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_sensors", -1),
            ("path_length", 0.0),
            ("sink_speed", -2.0),
            ("slot_duration", 0.0),
            ("battery_capacity", 0.0),
            ("panel_area_mm2", -1.0),
            ("weather", "hail"),
            ("accumulation_hours", (3.0, 1.0)),
            ("fixed_power", 0.0),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            ScenarioConfig(**{field: value})

    def test_with_functional_update(self):
        c = ScenarioConfig(num_sensors=100)
        c2 = c.with_(num_sensors=200, sink_speed=10.0)
        assert c.num_sensors == 100
        assert c2.num_sensors == 200 and c2.sink_speed == 10.0

    def test_fixed_power_table(self):
        c = ScenarioConfig(fixed_power=0.3)
        table = c.rate_table()
        assert isinstance(table, FixedPowerTable)
        assert table.fixed_power == 0.3
        # Rates stay the paper's multi-rate profile.
        assert table.rate_at(10.0) == pytest.approx(250_000.0)

    def test_config_hashable_and_picklable(self):
        import pickle

        c = ScenarioConfig(num_sensors=10)
        assert hash(c) == hash(ScenarioConfig(num_sensors=10))
        assert pickle.loads(pickle.dumps(c)) == c


class TestConfigSerialization:
    def test_round_trip_without_planner(self):
        c = ScenarioConfig(num_sensors=40, fixed_power=0.3)
        doc = c.to_dict()
        assert "planner" not in doc  # historical wire shape preserved
        assert ScenarioConfig.from_dict(doc) == c

    def test_round_trip_with_planner(self):
        c = ScenarioConfig(
            num_sensors=40,
            planner=PlannerConfig(kind="multi_sink", num_sinks=3),
        )
        doc = c.to_dict()
        assert doc["planner"]["kind"] == "multi_sink"
        assert ScenarioConfig.from_dict(doc) == c

    def test_from_dict_rejects_unknown_field_typed(self):
        with pytest.raises(UnknownFieldError) as excinfo:
            ScenarioConfig.from_dict({"num_sensors": 10, "sensros": 10})
        err = excinfo.value
        assert isinstance(err, ValueError)  # still catchable the old way
        assert err.fields == ("sensros",)  # the offending key, by name
        assert "sensros" in str(err)
        assert "num_sensors" in err.known  # message lists valid fields

    def test_from_dict_names_every_unknown_field_sorted(self):
        with pytest.raises(UnknownFieldError) as excinfo:
            ScenarioConfig.from_dict({"zz": 1, "aa": 2})
        assert excinfo.value.fields == ("aa", "zz")

    def test_from_dict_rejects_unknown_planner_field(self):
        with pytest.raises(UnknownFieldError, match="tour_budget"):
            ScenarioConfig.from_dict({"planner": {"tour_budget": 100.0}})

    def test_constructor_coerces_planner_mapping(self):
        c = ScenarioConfig(planner={"kind": "plane_sweep"})
        assert isinstance(c.planner, PlannerConfig)
        assert c.planner.kind == "plane_sweep"

    def test_constructor_rejects_bad_planner(self):
        with pytest.raises(ValueError):
            ScenarioConfig(planner="plane_sweep")


class TestScenario:
    def test_deterministic_per_seed(self):
        c = ScenarioConfig(num_sensors=30, path_length=2000.0)
        a, b = c.build(seed=5), c.build(seed=5)
        np.testing.assert_array_equal(a.network.positions, b.network.positions)
        np.testing.assert_allclose(a.network.charges(), b.network.charges())

    def test_seeds_differ(self):
        c = ScenarioConfig(num_sensors=30, path_length=2000.0)
        a, b = c.build(seed=5), c.build(seed=6)
        assert not np.array_equal(a.network.positions, b.network.positions)

    def test_paper_gamma(self):
        scenario = ScenarioConfig(num_sensors=10).build(seed=0)
        assert scenario.gamma == 40  # floor(200 / (5*1))

    def test_charges_within_battery(self):
        scenario = ScenarioConfig(num_sensors=50, path_length=2000.0).build(seed=1)
        charges = scenario.network.charges()
        assert np.all(charges >= 0)
        assert np.all(charges <= 10_000.0)

    def test_charges_in_calibrated_range(self):
        """U(0,1) h of daylight harvest on a 10x10 panel: <= ~12 J."""
        scenario = ScenarioConfig(num_sensors=200).build(seed=2)
        charges = scenario.network.charges()
        assert charges.max() < 13.0

    def test_weather_none_disables_harvesters(self):
        scenario = ScenarioConfig(num_sensors=10, weather="none").build(seed=0)
        assert scenario.network.harvester is None
        assert scenario.network.harvest(0.0, 3600.0).tolist() == [0.0] * 10
        assert scenario.network.charges().max() > 0  # still charged

    def test_weather_cloudy_harvests_less_than_sunny(self):
        sunny = ScenarioConfig(num_sensors=1, weather="sunny").build(seed=0)
        cloudy = ScenarioConfig(num_sensors=1, weather="cloudy").build(seed=0)
        window = (10 * 3600.0, 14 * 3600.0)
        assert (
            cloudy.network.harvester.energy(*window)
            < sunny.network.harvester.energy(*window)
        )

    def test_instance_budget_is_current_charge(self):
        scenario = ScenarioConfig(num_sensors=20, path_length=2000.0).build(seed=3)
        inst = scenario.instance()
        np.testing.assert_allclose(
            [inst.budget_of(i) for i in range(20)], scenario.network.charges()
        )

    def test_lateral_offsets_bounded(self):
        scenario = ScenarioConfig(num_sensors=100).build(seed=4)
        assert np.all(np.abs(scenario.network.positions[:, 1]) <= 180.0)

    def test_no_planner_means_no_plan(self):
        scenario = ScenarioConfig(num_sensors=10, path_length=1000.0).build(seed=0)
        assert scenario.plan is None

    def test_planner_attaches_plan_and_path(self):
        config = ScenarioConfig(
            num_sensors=20,
            path_length=1000.0,
            sink_speed=10.0,
            planner=PlannerConfig(kind="plane_sweep"),
        )
        scenario = config.build(seed=0)
        assert scenario.plan is not None
        assert scenario.plan.kind == "plane_sweep"
        assert scenario.trajectory.path is scenario.plan.path

    def test_fixed_line_planner_keeps_historical_topology(self):
        """Adding the identity planner must not perturb the deployment."""
        plain = ScenarioConfig(num_sensors=30, path_length=2000.0).build(seed=5)
        planned = ScenarioConfig(
            num_sensors=30,
            path_length=2000.0,
            planner=PlannerConfig(kind="fixed_line"),
        ).build(seed=5)
        np.testing.assert_array_equal(
            plain.network.positions, planned.network.positions
        )
        np.testing.assert_allclose(plain.network.charges(), planned.network.charges())
