"""SensorNetwork: positions, charges and one harvest model, as arrays."""

import numpy as np
import pytest

from repro.energy.harvester import ConstantHarvester
from repro.network.network import SensorNetwork
from repro.sim.algorithms import get_algorithm
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import run_tour


@pytest.fixture
def network():
    positions = np.array([[100.0, 10.0], [200.0, -20.0], [300.0, 0.0]])
    return SensorNetwork(
        positions,
        battery_capacity=100.0,
        initial_charges=np.array([10.0, 20.0, 30.0]),
        harvester=ConstantHarvester(0.1),
    )


class TestSensorNetwork:
    def test_build_basic(self, network):
        assert network.num_sensors == 3
        assert network.capacity == 100.0
        assert network.positions.tolist() == [[100.0, 10.0], [200.0, -20.0], [300.0, 0.0]]

    def test_positions_readonly(self, network):
        with pytest.raises(ValueError):
            network.positions[0, 0] = 99.0

    def test_positions_are_copied(self):
        xy = np.array([[1.0, 0.0], [2.0, 0.0]])
        net = SensorNetwork(xy, 50.0, 5.0)
        xy[0, 0] = 99.0
        assert net.positions[0, 0] == 1.0

    def test_charges(self, network):
        np.testing.assert_allclose(network.charges(), [10.0, 20.0, 30.0])
        # A copy: writing to it changes no battery.
        network.charges()[0] = 99.0
        assert network.charges()[0] == 10.0

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
        net = SensorNetwork(np.array([[1.0, 0.0], [2.0, 0.0]]), 50.0, 5.0)
        np.testing.assert_allclose(net.charges(), [5.0, 5.0])

    def test_no_harvester_factory(self):
        """Without a harvest model the nodes are plain batteries."""
        net = SensorNetwork(np.array([[1.0, 0.0]]), 50.0, 5.0)
        assert net.harvester is None

    def test_bad_positions_shape(self):
        for positions in (np.zeros((3, 3)), np.zeros(4), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="positions"):
                SensorNetwork(positions, 50.0, 5.0)

    def test_bad_charges_shape(self):
        with pytest.raises(ValueError):
            SensorNetwork(np.zeros((3, 2)), 50.0, np.ones(2))

    def test_empty_network(self):
        net = SensorNetwork(np.zeros((0, 2)), 10.0, 0.0)
        assert net.num_sensors == 0
        assert net.positions.shape == (0, 2)
        assert net.charges().shape == (0,)
        assert net.harvest(0.0, 100.0).shape == (0,)
        assert net.deposit(np.zeros(0)).shape == (0,)
        net.withdraw(np.zeros(0))
        assert net.sensors == ()

    def test_harvest_without_harvester(self):
        net = SensorNetwork(np.zeros((2, 2)), 10.0, 1.0)
        np.testing.assert_array_equal(net.harvest(0.0, 100.0), [0.0, 0.0])

    def test_harvest_with_harvester(self, network):
        assert network.harvest(0.0, 100.0).tolist() == [10.0] * 3

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

        shared = Counting(0.7)
        net = SensorNetwork(np.zeros((5, 2)), 10_000.0, 1.0, harvester=shared)
        gains = net.harvest(10.0, 250.0)
        # Exactly what a per-node call returns, node by node.
        assert gains.tolist() == [shared.model.energy(10.0, 250.0)] * 5
        assert shared.calls == 1


class TestSensorsSnapshot:
    """``network.sensors`` is a read-only snapshot, taken at each read,
    of ``sensors[i].battery.charge`` and ``.capacity``."""

    def test_equals_charges_after_a_mutating_tour(self):
        scenario = ScenarioConfig(num_sensors=30, path_length=2000.0).build(seed=5)
        before = scenario.network.sensors
        run_tour(scenario, get_algorithm("Offline_Appro"), mutate=True)
        after = scenario.network.sensors
        charges = scenario.network.charges().tolist()
        assert [node.battery.charge for node in after] == charges
        assert [node.battery.capacity for node in after] == [10_000.0] * 30
        # The earlier read is the state it was taken at.
        assert [node.battery.charge for node in before] != charges

    def test_writing_cannot_change_the_network(self, network):
        nodes = network.sensors
        with pytest.raises(AttributeError):
            nodes[0].battery.charge = 0.0
        with pytest.raises(AttributeError):
            nodes[0].battery = None
        with pytest.raises(TypeError):
            nodes[0] = None
        assert network.charges().tolist() == [10.0, 20.0, 30.0]
