"""LP relaxation bound."""

import pytest

from repro.core.baselines import greedy_by_profit
from repro.core.exact import brute_force_optimum
from repro.core.lp import dcmp_lp_upper_bound
from repro.core.offline_appro import offline_appro
from tests.conftest import make_instance, random_instance


def test_lp_upper_bounds_brute_force(rng):
    for _ in range(15):
        inst = random_instance(rng, num_slots=8, num_sensors=3, max_window=4)
        opt = brute_force_optimum(inst).collected_bits(inst)
        lp = dcmp_lp_upper_bound(inst)
        assert lp >= opt - 1e-6


def test_lp_tight_on_uncontended_instance():
    # One sensor, no contention, ample budget: LP = sum of profits.
    inst = make_instance(
        4,
        1.0,
        [{"window": (0, 3), "rates": [1, 2, 3, 4], "powers": [1, 1, 1, 1], "budget": 10.0}],
    )
    assert dcmp_lp_upper_bound(inst) == pytest.approx(10.0)


def test_lp_respects_budget():
    # Budget for exactly 1.5 slots: LP may split fractionally.
    inst = make_instance(
        2,
        1.0,
        [{"window": (0, 1), "rates": [4.0, 4.0], "powers": [2.0, 2.0], "budget": 3.0}],
    )
    assert dcmp_lp_upper_bound(inst) == pytest.approx(6.0)


def test_lp_respects_slot_exclusivity():
    # Two sensors share the single slot: LP <= max profit, not the sum.
    inst = make_instance(
        1,
        1.0,
        [
            {"window": (0, 0), "rates": [5.0], "powers": [1.0], "budget": 9.0},
            {"window": (0, 0), "rates": [3.0], "powers": [1.0], "budget": 9.0},
        ],
    )
    assert dcmp_lp_upper_bound(inst) == pytest.approx(5.0)


def test_lp_zero_on_empty_instance():
    inst = make_instance(
        3, 1.0, [{"window": None, "rates": [], "powers": [], "budget": 1.0}]
    )
    assert dcmp_lp_upper_bound(inst) == 0.0


def test_lp_bounds_all_algorithms(rng):
    for _ in range(10):
        inst = random_instance(rng, num_slots=10, num_sensors=4)
        lp = dcmp_lp_upper_bound(inst)
        for alloc in (offline_appro(inst), greedy_by_profit(inst)):
            assert alloc.collected_bits(inst) <= lp + 1e-6
