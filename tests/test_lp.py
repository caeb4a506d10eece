"""LP relaxation bound."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.baselines import greedy_by_profit
from repro.core.exact import brute_force_optimum
from repro.core.ilp import solve_dcmp_ilp
from repro.core.instance import DataCollectionInstance
from repro.core.lp import dcmp_lp_upper_bound, slot_run_model
from repro.core.matching import max_weight_b_matching
from repro.core.offline_appro import offline_appro
from repro.core.offline_maxmatch import build_matching_edges, offline_maxmatch
from repro.obs import MetricsRegistry, use_registry
from repro.sim.scenario import ScenarioConfig
from repro.utils.intervals import SlotInterval
from tests.conftest import make_instance, random_instance
from tests.oracles import dcmp_ilp_reference, dcmp_lp_reference_bound


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
# The LP over runs of identical slots equals the per-pair reference
# ----------------------------------------------------------------------
def assert_same_bound(bound, reference):
    """Equal within the tolerance of ``certify``'s ``lp_upper_bound``
    check: HiGHS solves the merged LP, a different program with the same
    optimum, so its rounding may move the last bits."""
    assert abs(bound - reference) <= 1e-9 + 1e-9 * max(1.0, abs(reference))


_STRAIGHT = [(n, seed) for n in (30, 100, 300, 600) for seed in (1, 3, 7)]


@pytest.mark.parametrize("num_sensors, seed", _STRAIGHT)
def test_flat_pair_bound_equals_reference_on_straight_line(num_sensors, seed):
    inst = ScenarioConfig(num_sensors=num_sensors).build(seed=seed).instance()
    assert_same_bound(dcmp_lp_upper_bound(inst), dcmp_lp_reference_bound(inst))


@pytest.mark.parametrize("num_sensors", [60, 300])
def test_flat_pair_bound_equals_reference_at_fixed_power(num_sensors):
    config = ScenarioConfig(num_sensors=num_sensors, fixed_power=0.3)
    inst = config.build(seed=1).instance()
    assert_same_bound(dcmp_lp_upper_bound(inst), dcmp_lp_reference_bound(inst))


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
    assert_same_bound(dcmp_lp_upper_bound(inst), dcmp_lp_reference_bound(inst))


def test_flat_pair_bound_equals_reference_on_random_instances(rng):
    for _ in range(20):
        inst = random_instance(rng, num_slots=12, num_sensors=5, max_window=6)
        assert_same_bound(dcmp_lp_upper_bound(inst), dcmp_lp_reference_bound(inst))


@st.composite
def run_heavy_instances(draw, fixed_power=st.sampled_from([None, 0.3])):
    """Random instances from one or two (rate, power) levels plus rate
    ``0.0``, each level drawn up to eight times as often as ``0.0``, so
    some runs of identical slots are long and some break on rate-0
    slots (or on a power change at one rate); every power is the one
    drawn from ``fixed_power`` unless that is ``None``; budgets from 0
    to non-binding, and an unreachable sensor inserted in some."""
    levels = draw(
        st.lists(
            st.sampled_from(
                [(4800.0, 0.17), (19200.0, 0.30), (19200.0, 0.22), (250000.0, 0.33)]
            ),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    weight = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instance = random_instance(
        rng,
        num_slots=draw(st.integers(1, 24)),
        num_sensors=draw(st.integers(1, 6)),
        max_window=draw(st.integers(1, 16)),
        rate_choices=[rate for rate, _ in levels] * weight + [0.0],
        power_choices=[power for _, power in levels] * weight + [0.22],
        fixed_power=draw(fixed_power),
        budget_scale=draw(st.sampled_from([1.0, 0.0, 0.25, 0.5, 2.0, 4.0])),
    )
    starts, ends = instance.window_bounds()
    budgets = instance.budgets_array()
    if draw(st.booleans()):
        # An unreachable sensor has no pair, so the flat arrays stay.
        at = draw(st.integers(0, instance.num_sensors))
        starts, ends = np.insert(starts, at, 0), np.insert(ends, at, -1)
        budgets = np.insert(budgets, at, 1.0)
    flat = instance.flat_pairs()
    return DataCollectionInstance(
        instance.num_slots, instance.slot_duration, starts, ends, flat.rates, flat.powers, budgets
    )


@given(run_heavy_instances())
def test_merged_bound_equals_reference_on_run_heavy_instances(inst):
    assert_same_bound(dcmp_lp_upper_bound(inst), dcmp_lp_reference_bound(inst))


def test_merged_bound_in_closed_form():
    """Runs {0, 1, 2}, {3} (sensor 0 cannot send) and {4, 5, 6}; sensor
    0's budget pays for 1.5 of its 10-bit slots, and sensor 2 (6 bits a
    slot, ample budget) fills the other 5.5: LP = 15 + 33 = 48 bits
    over five (sensor, run) columns.  Sensor 1 is unreachable."""
    rates = [5.0, 5.0, 5.0, 0.0, 5.0, 5.0, 5.0]
    inst = make_instance(
        7,
        2.0,
        [
            {"window": (0, 6), "rates": rates, "powers": [1.5] * 7, "budget": 4.5},
            {"window": None, "rates": [], "powers": [], "budget": 1.0},
            {"window": (0, 6), "rates": [3.0] * 7, "powers": [1.0] * 7, "budget": 100.0},
        ],
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        assert dcmp_lp_upper_bound(inst) == pytest.approx(48.0, rel=1e-12)
    assert registry.snapshot()["gauges"]["lp.num_vars"] == 5


def test_power_change_at_one_rate_splits_a_run():
    """Slots 0–1 cost 1 J and slots 2–3 cost 3 J at one rate: two runs.
    A budget of 3 J buys slots 0 and 1 and a third of a 3 J slot, so
    LP = 10·(2 + 1/3); one merged run would read 30."""
    inst = make_instance(
        4,
        1.0,
        [{"window": (0, 3), "rates": [10.0] * 4, "powers": [1.0, 1.0, 3.0, 3.0], "budget": 3.0}],
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        assert dcmp_lp_upper_bound(inst) == pytest.approx(70.0 / 3.0, rel=1e-12)
    assert registry.snapshot()["gauges"]["lp.num_vars"] == 2


def test_paper_road_merges_to_under_a_third_of_the_pairs():
    """At the service's shape, the LP bound and the ILP hand HiGHS fewer
    than a third of the live pairs as columns, and on the 0.3 W road
    ``Offline_MaxMatch`` fewer than a third of the per-slot matching
    edges (1,373 of 6,411 at seed 1): a fallback to one column per pair
    fails here."""
    inst = ScenarioConfig(num_sensors=100).build(seed=1).instance()
    live = int(np.count_nonzero(inst.flat_pairs().rates > 0))
    registry = MetricsRegistry()
    with use_registry(registry):
        dcmp_lp_upper_bound(inst)
        solve_dcmp_ilp(inst)
    gauges = registry.snapshot()["gauges"]
    assert gauges["lp.num_vars"] < live / 3
    assert gauges["ilp.num_vars"] < live / 3

    fixed = ScenarioConfig(num_sensors=100, fixed_power=0.3).build(seed=1).instance()
    edges, _ = build_matching_edges(fixed)
    registry = MetricsRegistry()
    with use_registry(registry):
        offline_maxmatch(fixed)
    assert registry.counter("matching.calls") == 1
    assert registry.counter("matching.edges") < len(edges) / 3


# ----------------------------------------------------------------------
# One run model: the ILP and Offline_MaxMatch solve over it too
# ----------------------------------------------------------------------
def assert_fills_runs_in_sensor_order(allocation, inst):
    """``allocation`` is feasible, and within each run of
    :func:`slot_run_model` its assigned slots come first, owned by
    sensors in ascending order: the model's expansion."""
    allocation.check_feasible(inst)
    owner = allocation.slot_owner
    bounds = slot_run_model(inst).bounds.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        run = owner[lo:hi]
        assigned = run[run >= 0]
        np.testing.assert_array_equal(run[: assigned.size], assigned)
        assert np.all(np.diff(assigned) >= 0)


@given(run_heavy_instances())
def test_ilp_equals_per_pair_oracle_on_run_heavy_instances(inst):
    sol = solve_dcmp_ilp(inst)
    assert sol.optimal
    reference = dcmp_ilp_reference(inst)
    assert_same_bound(sol.objective_bits, reference.collected_bits(inst))
    assert_fills_runs_in_sensor_order(sol.allocation, inst)


@given(run_heavy_instances(fixed_power=st.just(0.3)))
def test_offline_maxmatch_equals_per_slot_matching_on_run_heavy_instances(inst):
    allocation = offline_maxmatch(inst, 0.3)
    edges, caps = build_matching_edges(inst, 0.3)
    matching = max_weight_b_matching(edges, caps, inst.num_slots)
    assert_same_bound(allocation.collected_bits(inst), matching.weight)
    assert_fills_runs_in_sensor_order(allocation, inst)


def test_model_expands_counts_run_by_run_in_sensor_order():
    """The closed-form instance's runs {0, 1, 2}, {3}, {4, 5, 6}:
    sensor 0 takes one slot of each long run and sensor 2 two, so each
    run opens with sensor 0; a count that overfills a run raises."""
    rates = [5.0, 5.0, 5.0, 0.0, 5.0, 5.0, 5.0]
    inst = make_instance(
        7,
        2.0,
        [
            {"window": (0, 6), "rates": rates, "powers": [1.5] * 7, "budget": 4.5},
            {"window": None, "rates": [], "powers": [], "budget": 1.0},
            {"window": (0, 6), "rates": [3.0] * 7, "powers": [1.0] * 7, "budget": 100.0},
        ],
    )
    model = slot_run_model(inst)
    np.testing.assert_array_equal(model.bounds, [0, 3, 4, 7])
    np.testing.assert_array_equal(model.sensor, [0, 0, 2, 2, 2])
    np.testing.assert_array_equal(model.run, [0, 2, 0, 1, 2])
    np.testing.assert_array_equal(model.width, [3, 3, 3, 1, 3])
    allocation = model.allocation(np.array([1.0, 1.0, 2.0, 0.0, 1.9999999]))
    np.testing.assert_array_equal(allocation.slot_owner, [0, 2, 2, -1, 0, 2, 2])
    with pytest.raises(ValueError, match="overfill"):
        model.allocation(np.array([2.0, 0.0, 2.0, 0.0, 0.0]))


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
