"""Allocation: constructors, scoring, feasibility checking."""

import numpy as np
import pytest

from repro.core.allocation import Allocation
from tests.conftest import make_instance
from tests.oracles import from_sensor_slots


@pytest.fixture
def inst():
    return make_instance(
        6,
        1.0,
        [
            {"window": (0, 3), "rates": [10, 20, 30, 40], "powers": [1, 1, 1, 1], "budget": 2.0},
            {"window": (2, 5), "rates": [5, 5, 5, 5], "powers": [2, 2, 2, 2], "budget": 10.0},
        ],
    )


class TestConstruction:
    def test_empty(self):
        alloc = Allocation.empty(4)
        assert alloc.num_slots == 4
        assert alloc.num_assigned() == 0

    def test_from_sensor_slots(self):
        alloc = from_sensor_slots(5, {0: [1, 2], 1: [4]})
        np.testing.assert_array_equal(alloc.slot_owner, [-1, 0, 0, -1, 1])

    def test_double_assignment_rejected(self):
        with pytest.raises(ValueError):
            from_sensor_slots(5, {0: [1], 1: [1]})

    def test_double_assignment_message_names_both_sensors_and_horizon(self):
        with pytest.raises(ValueError, match=r"slot 1 assigned to both sensor 0 and 1"):
            from_sensor_slots(5, {0: [1], 1: [1]})
        with pytest.raises(ValueError, match=r"T=5"):
            from_sensor_slots(5, {0: [1], 1: [1]})

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(ValueError):
            from_sensor_slots(5, {0: [5]})

    def test_out_of_range_message_names_sensor_and_bounds(self):
        with pytest.raises(
            ValueError, match=r"sensor 0: slot 5 outside \[0, 4\] \(allocation horizon T=5\)"
        ):
            from_sensor_slots(5, {0: [5]})

    def test_owner_array_immutable(self):
        alloc = Allocation.empty(3)
        with pytest.raises(ValueError):
            alloc.slot_owner[0] = 1


class TestViews:
    def test_slots_of(self):
        alloc = from_sensor_slots(6, {0: [0, 3], 1: [2]})
        np.testing.assert_array_equal(alloc.slots_of(0), [0, 3])
        np.testing.assert_array_equal(alloc.slots_of(1), [2])
        assert alloc.slots_of(2).size == 0

    def test_sensor_slots_roundtrip(self):
        mapping = {0: [0, 3], 1: [2]}
        alloc = from_sensor_slots(6, mapping)
        assert alloc.sensor_slots() == mapping

    def test_num_assigned(self):
        alloc = from_sensor_slots(6, {0: [0, 3], 1: [2]})
        assert alloc.num_assigned() == 3


class TestScoring:
    def test_collected_bits(self, inst):
        alloc = from_sensor_slots(6, {0: [1, 3], 1: [4]})
        assert alloc.collected_bits(inst) == pytest.approx(20 + 40 + 5)

    def test_energy_spent(self, inst):
        alloc = from_sensor_slots(6, {0: [1, 3], 1: [4, 5]})
        np.testing.assert_allclose(alloc.energy_spent(inst), [2.0, 4.0])

    def test_per_sensor_bits(self, inst):
        alloc = from_sensor_slots(6, {0: [0], 1: [2]})
        np.testing.assert_allclose(alloc.per_sensor_bits(inst), [10.0, 5.0])

    def test_empty_allocation_scores_zero(self, inst):
        assert Allocation.empty(6).collected_bits(inst) == 0.0


class TestFeasibility:
    def test_feasible(self, inst):
        alloc = from_sensor_slots(6, {0: [1, 3], 1: [4]})
        assert alloc.violations(inst) == []
        alloc.check_feasible(inst)  # must not raise

    def test_slot_outside_window(self, inst):
        alloc = from_sensor_slots(6, {0: [5]})
        problems = alloc.violations(inst)
        assert any("outside" in p for p in problems)

    def test_budget_violation(self, inst):
        # Sensor 0 budget 2.0 at 1 J/slot: three slots overdraw.
        alloc = from_sensor_slots(6, {0: [0, 1, 2]})
        problems = alloc.violations(inst)
        assert any("budget" in p for p in problems)
        with pytest.raises(ValueError):
            alloc.check_feasible(inst)

    def test_budget_violation_reports_overdraw_amount(self, inst):
        alloc = from_sensor_slots(6, {0: [0, 1, 2]})
        (problem,) = alloc.violations(inst)
        # Spend 3 J against a 2 J budget: the message quantifies the excess.
        assert "by 1.000e+00 J" in problem

    def test_check_feasible_message_names_instance_shape(self, inst):
        alloc = from_sensor_slots(6, {0: [0, 1, 2]})
        with pytest.raises(
            ValueError, match=r"infeasible allocation \(n=2 sensors, T=6 slots\)"
        ):
            alloc.check_feasible(inst)

    def test_budget_exact_is_feasible(self, inst):
        alloc = from_sensor_slots(6, {0: [2, 3]})
        assert alloc.violations(inst) == []
        alloc.check_feasible(inst)

    def test_unknown_sensor(self, inst):
        alloc = Allocation(np.array([5, -1, -1, -1, -1, -1]))
        assert any("unknown sensor" in p for p in alloc.violations(inst))

    def test_horizon_mismatch(self, inst):
        alloc = Allocation.empty(4)
        assert any("horizon" in p for p in alloc.violations(inst))

    def test_unreachable_sensor_assignment_caught(self):
        inst = make_instance(
            3, 1.0, [{"window": None, "rates": [], "powers": [], "budget": 1.0}]
        )
        alloc = Allocation(np.array([0, -1, -1]))
        assert alloc.violations(inst) == ["slot 0: outside A(v_0) = None"]
        with pytest.raises(ValueError, match=r"slot 0: outside A\(v_0\) = None"):
            alloc.check_feasible(inst)

    def test_check_feasible_lists_every_violation(self, inst):
        # An unknown sensor, a slot outside its window and an overdraw:
        # all three named, in that order, not just the first.
        alloc = Allocation(np.array([0, 0, 0, 9, -1, 0]))
        with pytest.raises(ValueError) as err:
            alloc.check_feasible(inst)
        lines = str(err.value).splitlines()[1:]
        assert [line.strip() for line in lines] == alloc.violations(inst)
        assert len(lines) == 3

    def test_empty_network_names_unknown_sensor(self):
        inst = make_instance(3, 1.0, [])
        alloc = Allocation(np.array([0, -1, -1]))
        with pytest.raises(ValueError, match="unknown sensor 0"):
            alloc.check_feasible(inst)
        Allocation.empty(3).check_feasible(inst)
        assert alloc.collected_bits(inst) == 0.0
        assert alloc.energy_spent(inst).shape == (0,)
