"""SensorNetwork container and Sensor entity."""

import numpy as np
import pytest

from repro.energy.battery import Battery
from repro.energy.harvester import ConstantHarvester
from repro.network.geometry import Point
from repro.network.network import SensorNetwork
from repro.network.sensor import Sensor
from repro.sim.algorithms import get_algorithm
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import run_tour


@pytest.fixture
def network():
    positions = np.array([[100.0, 10.0], [200.0, -20.0], [300.0, 0.0]])
    return SensorNetwork.build(
        positions,
        battery_capacity=100.0,
        initial_charges=np.array([10.0, 20.0, 30.0]),
        harvester_factory=lambda i: ConstantHarvester(0.1 * (i + 1)),
    )


class TestSensor:
    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Sensor(-1, Point(0, 0), Battery(10.0))

    def test_xy(self):
        s = Sensor(0, Point(3.0, 4.0), Battery(10.0))
        np.testing.assert_array_equal(s.xy, [3.0, 4.0])


class TestSensorNetwork:
    def test_build_basic(self, network):
        assert network.num_sensors == 3
        assert len(network) == 3

    def test_positions_readonly(self, network):
        with pytest.raises(ValueError):
            network.positions[0, 0] = 99.0

    def test_charges(self, network):
        np.testing.assert_allclose(network.charges(), [10.0, 20.0, 30.0])

    def test_default_budgets_are_charges(self):
        """A scenario's instance budgets each sensor its stored charge,
        P(v) = P_j(v), before and after a tour moves the batteries."""
        scenario = ScenarioConfig(num_sensors=30, path_length=2000.0).build(seed=5)
        before = scenario.instance().budgets_array()
        assert np.array_equal(before, scenario.network.charges())
        run_tour(scenario, get_algorithm("Offline_Appro"), mutate=True)
        after = scenario.instance().budgets_array()
        assert np.array_equal(after, scenario.network.charges())
        assert not np.array_equal(before, after)

    def test_scalar_initial_charge_broadcast(self):
        net = SensorNetwork.build(np.array([[1.0, 0.0], [2.0, 0.0]]), 50.0, 5.0)
        np.testing.assert_allclose(net.charges(), [5.0, 5.0])

    def test_harvesters_assigned_per_node(self, network):
        assert network[0].harvester.power(0.0) == pytest.approx(0.1)
        assert network[2].harvester.power(0.0) == pytest.approx(0.3)

    def test_no_harvester_factory(self):
        net = SensorNetwork.build(np.array([[1.0, 0.0]]), 50.0, 5.0)
        assert net[0].harvester is None

    def test_iteration_order(self, network):
        ids = [s.node_id for s in network]
        assert ids == [0, 1, 2]

    def test_bad_positions_shape(self):
        with pytest.raises(ValueError):
            SensorNetwork.build(np.zeros((3, 3)), 50.0, 5.0)

    def test_out_of_order_ids_rejected(self):
        sensors = [
            Sensor(1, Point(0, 0), Battery(10.0)),
            Sensor(0, Point(1, 0), Battery(10.0)),
        ]
        with pytest.raises(ValueError):
            SensorNetwork(sensors)

    def test_empty_network(self):
        net = SensorNetwork([])
        assert net.num_sensors == 0
        assert net.positions.shape == (0, 2)
        assert net.harvest(0.0, 100.0).shape == (0,)

    def test_harvest_without_harvester(self):
        net = SensorNetwork([Sensor(0, Point(0, 0), Battery(10.0))])
        np.testing.assert_array_equal(net.harvest(0.0, 100.0), [0.0])

    def test_harvest_with_harvester(self):
        sensor = Sensor(0, Point(0, 0), Battery(10.0), ConstantHarvester(0.5))
        net = SensorNetwork([sensor])
        assert net.harvest(0.0, 100.0)[0] == pytest.approx(50.0)

    def test_harvest_calls_each_shared_model_once(self):
        class Counting:
            def __init__(self, power_w):
                self.model = ConstantHarvester(power_w)
                self.calls = 0

            def power(self, t):
                return self.model.power(t)

            def energy(self, t_start, t_end):
                self.calls += 1
                return self.model.energy(t_start, t_end)

        shared, first, second = Counting(0.7), Counting(0.1), Counting(0.3)
        models = [None, shared, first, shared, None, second, shared]
        net = SensorNetwork(
            [Sensor(i, Point(i, 0), Battery(10.0), m) for i, m in enumerate(models)]
        )
        gains = net.harvest(10.0, 250.0)
        # Exactly what a per-node call returns, node by node.
        expected = [0.0 if m is None else m.model.energy(10.0, 250.0) for m in models]
        assert gains.tolist() == expected
        assert (shared.calls, first.calls, second.calls) == (1, 1, 1)
