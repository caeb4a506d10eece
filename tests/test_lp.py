"""LP relaxation bound."""

import pytest

from repro.core.baselines import greedy_by_profit
from repro.core.exact import brute_force_optimum
from repro.core.lp import dcmp_lp_upper_bound
from repro.core.offline_appro import offline_appro
from repro.obs import MetricsRegistry, use_registry
from repro.sim.scenario import ScenarioConfig
from repro.utils.intervals import SlotInterval
from tests.conftest import make_instance, random_instance
from tests.oracles import dcmp_lp_reference_bound


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


# ----------------------------------------------------------------------
# The flat-pair model equals the per-pair reference
# ----------------------------------------------------------------------
_STRAIGHT = [(n, seed) for n in (30, 100, 300, 600) for seed in (1, 3, 7)]


@pytest.mark.parametrize("num_sensors, seed", _STRAIGHT)
def test_flat_pair_bound_equals_reference_on_straight_line(num_sensors, seed):
    inst = ScenarioConfig(num_sensors=num_sensors).build(seed=seed).instance()
    assert dcmp_lp_upper_bound(inst) == dcmp_lp_reference_bound(inst)


@pytest.mark.parametrize("num_sensors", [60, 300])
def test_flat_pair_bound_equals_reference_at_fixed_power(num_sensors):
    config = ScenarioConfig(num_sensors=num_sensors, fixed_power=0.3)
    inst = config.build(seed=1).instance()
    assert dcmp_lp_upper_bound(inst) == dcmp_lp_reference_bound(inst)


@pytest.mark.parametrize("kind", ["plane_sweep", "multi_sink"])
def test_flat_pair_bound_equals_reference_on_planned_tours(kind):
    config = ScenarioConfig.from_dict(
        {
            "num_sensors": 60,
            "path_length": 1500.0,
            "max_offset": 300.0,
            "sink_speed": 10.0,
            "planner": {"kind": kind},
        }
    )
    inst = config.build(seed=3).instance()
    assert dcmp_lp_upper_bound(inst) == dcmp_lp_reference_bound(inst)


def test_flat_pair_bound_equals_reference_on_random_instances(rng):
    for _ in range(20):
        inst = random_instance(rng, num_slots=12, num_sensors=5, max_window=6)
        assert dcmp_lp_upper_bound(inst) == dcmp_lp_reference_bound(inst)


# ----------------------------------------------------------------------
# Memo: one solve per instance
# ----------------------------------------------------------------------
def test_bound_is_memoised_on_the_instance():
    inst = ScenarioConfig(num_sensors=60, path_length=3000.0).build(seed=5).instance()
    registry = MetricsRegistry()
    with use_registry(registry):
        first = dcmp_lp_upper_bound(inst)
        second = dcmp_lp_upper_bound(inst)
    assert first == second
    assert registry.counter("lp.calls") == 1
    assert registry.timer_stats("lp.dcmp_bound").count == 1


def test_empty_instance_bound_records_no_solve():
    inst = make_instance(
        3, 1.0, [{"window": None, "rates": [], "powers": [], "budget": 1.0}]
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        assert dcmp_lp_upper_bound(inst) == 0.0
        assert dcmp_lp_upper_bound(inst) == 0.0
    assert registry.counter("lp.calls") == 0


def test_restricted_and_rebuilt_instances_solve_their_own():
    scenario = ScenarioConfig(num_sensors=60, path_length=3000.0).build(seed=5)
    inst = scenario.instance()
    registry = MetricsRegistry()
    with use_registry(registry):
        whole = dcmp_lp_upper_bound(inst)
        sub, _ = inst.restrict(SlotInterval(0, inst.num_slots // 2))
        part = dcmp_lp_upper_bound(sub)
        assert registry.counter("lp.calls") == 2
        assert dcmp_lp_upper_bound(sub) == part
        rebuilt = scenario.instance()
        assert dcmp_lp_upper_bound(rebuilt) == whole
    assert registry.counter("lp.calls") == 3
    assert part <= whole
