"""DataCollectionInstance: construction, derived quantities, restriction."""

import numpy as np
import pytest

from repro.core.instance import DataCollectionInstance
from repro.network.network import SensorNetwork
from repro.network.path import SinkTrajectory
from repro.network.radio import CC2420_LIKE_TABLE
from repro.utils.intervals import SlotInterval
from tests.conftest import make_instance, straight_road


@pytest.fixture
def tiny():
    """Two sensors over 10 slots.

    Sensor 0: slots 2..5, sensor 1: slots 4..7 (sharing 4, 5).
    """
    return make_instance(
        10,
        1.0,
        [
            {
                "window": (2, 5),
                "rates": [100.0, 200.0, 300.0, 200.0],
                "powers": [1.0, 2.0, 3.0, 2.0],
                "budget": 5.0,
            },
            {
                "window": (4, 7),
                "rates": [150.0, 250.0, 250.0, 150.0],
                "powers": [1.5, 2.5, 2.5, 1.5],
                "budget": 4.0,
            },
        ],
    )


def _arrays(**changes):
    """Constructor arguments of a two-sensor instance over 4 slots:
    sensor 0 sees slots 0..1, sensor 1 is unreachable."""
    args = dict(
        num_slots=4,
        slot_duration=1.0,
        starts=[0, 0],
        ends=[1, -1],
        rates=[10.0, 20.0],
        powers=[1.0, 1.0],
        budgets=[1.0, 2.0],
    )
    args.update(changes)
    return args


class TestSensorSlotData:
    """Each sensor's window, rates, powers and budget, as the array
    constructor checks them: a ``ValueError`` names the sensor."""

    def test_arrays_stored_as_given(self):
        inst = DataCollectionInstance(**_arrays())
        assert inst.window_of(0) == SlotInterval(0, 1)
        assert inst.window_of(1) is None
        assert inst.flat_pairs().rates.tolist() == [10.0, 20.0]
        assert inst.budgets_array().tolist() == [1.0, 2.0]
        assert [s.num_slots for s in inst.sensors] == [2, 0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            DataCollectionInstance(**_arrays(powers=[1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="one entry per sensor"):
            DataCollectionInstance(**_arrays(budgets=[1.0]))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="sensor 0 rate at slot 1 is -1.0"):
            DataCollectionInstance(**_arrays(rates=[1.0, -1.0]))

    @pytest.mark.parametrize("name", ["rates", "powers"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_bad_rate_or_power_rejected(self, name, value):
        with pytest.raises(ValueError, match="sensor 0 .* at slot 1"):
            DataCollectionInstance(**_arrays(**{name: [1.0, value]}))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="sensor 1 budget is -1.0"):
            DataCollectionInstance(**_arrays(budgets=[1.0, -1.0]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, value):
        with pytest.raises(ValueError, match="sensor 1 budget"):
            DataCollectionInstance(**_arrays(budgets=[1.0, value]))

    def test_window_outside_horizon_rejected(self):
        with pytest.raises(ValueError, match=r"sensor 0 window \[2, 4\] outside \[0, 3\]"):
            DataCollectionInstance(
                **_arrays(starts=[2, 0], ends=[4, -1], rates=[1.0] * 3, powers=[1.0] * 3)
            )
        with pytest.raises(ValueError, match="outside"):
            DataCollectionInstance(**_arrays(starts=[-1, 0], ends=[0, -1]))

    def test_empty_window_must_be_zero_minus_one(self):
        with pytest.raises(ValueError, match=r"sensor 1 window \[3, 1\] is empty"):
            DataCollectionInstance(**_arrays(starts=[0, 3], ends=[1, 1]))

    def test_arrays_immutable(self):
        inst = DataCollectionInstance(**_arrays())
        with pytest.raises(ValueError):
            inst.flat_pairs().rates[0] = 5.0
        with pytest.raises(ValueError):
            inst.budgets_array()[0] = 5.0

    def test_unreachable_sensor(self):
        inst = DataCollectionInstance(**_arrays())
        assert inst.sensors[1].num_slots == 0
        assert inst.window_of(1) is None
        assert inst.slot_competitors(0).tolist() == [0]


class TestBasics:
    def test_profit_and_cost(self, tiny):
        assert tiny.profit(0, 4) == pytest.approx(300.0)
        assert tiny.cost(0, 4) == pytest.approx(3.0)
        assert tiny.profit(1, 4) == pytest.approx(150.0)

    def test_profit_scales_with_tau(self):
        inst = make_instance(
            4, 2.0, [{"window": (0, 1), "rates": [10.0, 20.0], "powers": [1.0, 1.0], "budget": 9.0}]
        )
        assert inst.profit(0, 1) == pytest.approx(40.0)
        assert inst.cost(0, 1) == pytest.approx(2.0)

    def test_window_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            make_instance(
                3, 1.0, [{"window": (2, 4), "rates": [1, 1, 1], "powers": [1, 1, 1], "budget": 1}]
            )

    def test_slot_competitors(self, tiny):
        np.testing.assert_array_equal(tiny.slot_competitors(4), [0, 1])
        np.testing.assert_array_equal(tiny.slot_competitors(2), [0])
        np.testing.assert_array_equal(tiny.slot_competitors(7), [1])
        assert tiny.slot_competitors(0).size == 0

    def test_sensor_order_by_start_then_end(self):
        inst = make_instance(
            10,
            1.0,
            [
                {"window": (4, 8), "rates": [1] * 5, "powers": [1] * 5, "budget": 1},
                {"window": (1, 9), "rates": [1] * 9, "powers": [1] * 9, "budget": 1},
                {"window": (1, 3), "rates": [1] * 3, "powers": [1] * 3, "budget": 1},
                {"window": None, "rates": [], "powers": [], "budget": 1},
            ],
        )
        assert inst.sensor_order() == [2, 1, 0, 3]


class TestRestrict:
    def test_restrict_clips_windows(self, tiny):
        sub, parents = tiny.restrict(SlotInterval(4, 7))
        assert parents == [0, 1]
        assert sub.num_slots == 4
        # Sensor 0's window [2,5] ∩ [4,7] = [4,5] -> local [0,1].
        assert sub.window_of(0) == SlotInterval(0, 1)
        assert sub.profit(0, 0) == pytest.approx(300.0)
        assert sub.profit(0, 1) == pytest.approx(200.0)
        # Sensor 1's window [4,7] -> local [0,3].
        assert sub.window_of(1) == SlotInterval(0, 3)

    def test_restrict_drops_disjoint_sensors(self, tiny):
        sub, parents = tiny.restrict(SlotInterval(0, 1))
        assert parents == []
        assert sub.num_sensors == 0

    def test_restrict_overrides_budgets(self, tiny):
        sub, parents = tiny.restrict(SlotInterval(4, 7), budgets=np.array([1.5, 0.5]))
        assert sub.budget_of(0) == pytest.approx(1.5)
        assert sub.budget_of(1) == pytest.approx(0.5)

    def test_restrict_filters_sensor_ids(self, tiny):
        sub, parents = tiny.restrict(SlotInterval(4, 7), sensor_ids=[1])
        assert parents == [1]

    def test_restrict_negative_budget_clamped(self, tiny):
        sub, _ = tiny.restrict(SlotInterval(4, 5), budgets=np.array([-3.0, 1.0]))
        assert sub.budget_of(0) == 0.0

    def test_restrict_rejects_bad_interval(self, tiny):
        with pytest.raises(ValueError):
            tiny.restrict(SlotInterval(5, 12))


class TestFromNetwork:
    def test_from_network_end_to_end(self):
        # One sensor on the axis at x=500: every in-window slot's rate
        # follows the anchor distance through the paper's table.
        path = straight_road(1000.0)
        net = SensorNetwork(np.array([[500.0, 0.0]]), 100.0, 50.0)
        traj = SinkTrajectory(path, 5.0, 1.0)
        inst = DataCollectionInstance.from_network(
            net, traj, CC2420_LIKE_TABLE, np.array([50.0])
        )
        window = inst.window_of(0)
        assert window is not None
        slots = window.slots()
        d = traj.distances_to(np.array([500.0, 0.0]), slots)
        np.testing.assert_allclose(inst.flat_pairs().rates, CC2420_LIKE_TABLE.rate_at(d))
        np.testing.assert_allclose(inst.flat_pairs().powers, CC2420_LIKE_TABLE.power_at(d))
        assert inst.budget_of(0) == 50.0

    def test_from_network_unreachable_sensor(self):
        path = straight_road(1000.0)
        net = SensorNetwork(np.array([[500.0, 400.0]]), 100.0, 50.0)
        traj = SinkTrajectory(path, 5.0, 1.0)
        inst = DataCollectionInstance.from_network(
            net, traj, CC2420_LIKE_TABLE, np.array([50.0])
        )
        assert inst.window_of(0) is None

    def test_from_network_budget_shape_checked(self):
        path = straight_road(1000.0)
        net = SensorNetwork(np.array([[500.0, 0.0]]), 100.0, 50.0)
        traj = SinkTrajectory(path, 5.0, 1.0)
        with pytest.raises(ValueError):
            DataCollectionInstance.from_network(
                net, traj, CC2420_LIKE_TABLE, np.array([50.0, 1.0])
            )

    def test_rates_symmetric_for_centered_sensor(self):
        """A sensor on the axis sees a rate profile symmetric in its window."""
        path = straight_road(1000.0)
        net = SensorNetwork(np.array([[502.5, 0.0]]), 100.0, 50.0)
        traj = SinkTrajectory(path, 5.0, 1.0)
        inst = DataCollectionInstance.from_network(
            net, traj, CC2420_LIKE_TABLE, np.array([50.0])
        )
        rates = inst.flat_pairs().rates
        np.testing.assert_allclose(rates, rates[::-1])
