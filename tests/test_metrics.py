"""Evaluation metrics."""

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.sim.metrics import (
    energy_utilisation,
    jain_fairness,
    slot_utilisation,
    throughput_megabits,
)
from tests.conftest import make_instance
from tests.oracles import from_sensor_slots


@pytest.fixture
def inst():
    return make_instance(
        4,
        1.0,
        [
            {"window": (0, 3), "rates": [1e6] * 4, "powers": [1.0] * 4, "budget": 2.0},
            {"window": (0, 3), "rates": [2e6] * 4, "powers": [1.0] * 4, "budget": 2.0},
        ],
    )


def test_throughput_megabits(inst):
    alloc = from_sensor_slots(4, {0: [0], 1: [1]})
    assert throughput_megabits(alloc, inst) == pytest.approx(3.0)


class TestJain:
    def test_perfectly_fair(self):
        assert jain_fairness(np.array([3.0, 3.0, 3.0])) == pytest.approx(1.0)

    def test_single_winner(self):
        assert jain_fairness(np.array([6.0, 0.0, 0.0])) == pytest.approx(1.0 / 3.0)

    def test_empty_and_zero(self):
        assert jain_fairness(np.array([])) == 1.0
        assert jain_fairness(np.zeros(5)) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            jain_fairness(np.array([1.0, -1.0]))

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            vals = rng.uniform(0, 10, size=8)
            f = jain_fairness(vals)
            assert 1.0 / 8.0 - 1e-12 <= f <= 1.0 + 1e-12


class TestUtilisation:
    def test_energy_utilisation(self, inst):
        alloc = from_sensor_slots(4, {0: [0, 1], 1: [2]})
        # spent = 2 + 1 of total budget 4.
        assert energy_utilisation(alloc, inst) == pytest.approx(0.75)

    def test_energy_utilisation_zero_budget(self):
        inst = make_instance(
            2, 1.0, [{"window": (0, 1), "rates": [1.0, 1.0], "powers": [1.0, 1.0], "budget": 0.0}]
        )
        assert energy_utilisation(Allocation.empty(2), inst) == 0.0

    def test_slot_utilisation(self):
        alloc = from_sensor_slots(4, {0: [0, 2]})
        assert slot_utilisation(alloc) == pytest.approx(0.5)

    def test_slot_utilisation_empty(self):
        assert slot_utilisation(Allocation.empty(0)) == 0.0
