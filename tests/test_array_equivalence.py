"""Equivalence suite: vectorised solver core vs. scalar oracles.

The array-native core (``knapsack_few_weights``, the GAP path's
``local_ratio_gap`` that is now the reference in :mod:`tests.oracles`,
``Allocation`` accounting, ``run_tours``, the online interval merge)
promises *bit-identical* results to the scalar semantics it replaced.
This suite enforces that promise against the deliberately naive
references in :mod:`tests.oracles` across fixed seed × size grids plus
a Hypothesis sweep over :func:`repro.verify.gen.random_instance`.

Exact ``==`` comparisons (and exact tuple equality on selections) are
intentional throughout — any accumulation-order drift is a bug here,
not tolerance noise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.knapsack import knapsack_few_weights, solve_knapsack
from repro.core.offline_appro import offline_appro
from repro.core.offline_maxmatch import fixed_power_of
from repro.obs import MetricsRegistry, use_registry
from repro.online.framework import run_online
from repro.online.online_appro import GapIntervalScheduler, online_appro
from repro.online.online_maxmatch import MatchingIntervalScheduler, online_maxmatch
from repro.sim import ScenarioConfig, TourSpec, run_tour, run_tours
from repro.sim.algorithms import get_algorithm
from repro.utils.arrays import ordered_sum
from repro.verify.certificate import certify
from tests.conftest import random_instance
from tests.oracles import (
    GapBin,
    allocation_stats_oracle,
    dcmp_to_gap,
    gap_from_bins,
    knapsack_few_weights_oracle,
    local_ratio_gap,
    local_ratio_gap_oracle,
    run_online_reference,
)

SEEDS = st.integers(0, 100_000)

# The paper's radio level sets give the few-distinct-weights structure
# the solver exploits; a handful of classes is the realistic shape.
WEIGHT_CHOICES = (0.0, 0.2, 0.35, 0.5, 0.8)


def _random_knapsack(rng, n):
    weights = rng.choice(WEIGHT_CHOICES, size=n)
    profits = rng.uniform(-0.5, 4.0, size=n)  # some non-positive profits
    capacity = float(rng.uniform(0.0, 0.6) * n * 0.4)
    return profits, weights, capacity


# ----------------------------------------------------------------------
# Knapsack
# ----------------------------------------------------------------------
class TestKnapsackEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 3, 8, 20, 45, 90])
    def test_matches_oracle(self, seed, n):
        # Sizes straddle the scalar-odometer/vectorised-enumeration
        # cutoff so both paths are exercised against the one-path oracle.
        rng = np.random.default_rng(1000 * seed + n)
        for _ in range(10):
            profits, weights, capacity = _random_knapsack(rng, n)
            got = knapsack_few_weights(profits, weights, capacity)
            selected, profit, weight = knapsack_few_weights_oracle(
                profits, weights, capacity
            )
            assert got.selected == selected
            assert got.profit == profit
            assert got.weight == weight

    def test_oracle_is_optimal_on_small_instances(self):
        # Validates the oracle itself against subset brute force, so the
        # equivalence above is anchored to ground truth.
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 11))
            profits, weights, capacity = _random_knapsack(rng, n)
            _, profit, _ = knapsack_few_weights_oracle(profits, weights, capacity)
            best = 0.0
            for mask in range(1 << n):
                value = 0.0
                used = 0.0
                for k in range(n):
                    if mask >> k & 1:
                        value += float(profits[k])
                        used += float(weights[k])
                if used <= capacity + 1e-12 and value > best:
                    best = value
            assert profit == pytest.approx(best, abs=1e-12)

    def test_negative_weight_raises_in_both(self):
        profits = np.array([1.0, 2.0])
        weights = np.array([0.5, -0.1])
        with pytest.raises(ValueError, match="non-negative"):
            knapsack_few_weights(profits, weights, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            knapsack_few_weights_oracle(profits, weights, 1.0)

    def test_zero_weight_items_and_empty_filter(self):
        profits = np.array([3.0, 1.0, -2.0, 0.0])
        weights = np.array([0.0, 0.0, 0.2, 0.3])
        got = knapsack_few_weights(profits, weights, 0.1)
        selected, profit, weight = knapsack_few_weights_oracle(
            profits, weights, 0.1
        )
        assert got.selected == selected == (0, 1)
        assert got.profit == profit
        # Nothing survives the filter: both report the empty solution.
        got = knapsack_few_weights(-profits, weights, 0.1)
        assert got.selected == ()
        assert knapsack_few_weights_oracle(-profits, weights, 0.1)[0] == ()


# ----------------------------------------------------------------------
# GAP local-ratio loop
# ----------------------------------------------------------------------
def _random_gap(rng, num_bins, num_items):
    bins = []
    for _ in range(num_bins):
        size = int(rng.integers(0, min(num_items, 8) + 1))
        items = rng.choice(num_items, size=size, replace=False)
        bins.append(
            GapBin(
                capacity=float(rng.uniform(0.2, 2.0)),
                items=np.sort(items),
                profits=rng.uniform(0.1, 3.0, size=size),
                weights=rng.choice(WEIGHT_CHOICES[1:], size=size),
            )
        )
    return gap_from_bins(bins)


class TestGapEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("num_bins,num_items", [(1, 3), (4, 6), (12, 20)])
    def test_matches_oracle_on_synthetic_instances(
        self, seed, num_bins, num_items
    ):
        rng = np.random.default_rng(7919 * seed + num_bins + num_items)
        instance = _random_gap(rng, num_bins, num_items)
        registry = MetricsRegistry()
        with use_registry(registry):
            got = local_ratio_gap(instance)
        assignment, tentative, profit, updates = local_ratio_gap_oracle(
            instance, solve_knapsack
        )
        assert got.assignment == assignment
        assert got.tentative == tentative
        assert got.profit == profit
        counters = registry.dump()["counters"]
        assert counters["gap.residual_updates"] == updates

    def test_matches_oracle_under_custom_bin_order(self):
        rng = np.random.default_rng(5)
        instance = _random_gap(rng, 6, 9)
        order = [3, 0, 5, 1, 4, 2]
        got = local_ratio_gap(instance, bin_order=order)
        assignment, _, profit, _ = local_ratio_gap_oracle(
            instance, solve_knapsack, bin_order=order
        )
        assert got.assignment == assignment
        assert got.profit == profit

    def test_matches_oracle_on_dcmp_reductions(self):
        for seed in (11, 23, 37):
            rng = np.random.default_rng(seed)
            inst = random_instance(rng, num_slots=14, num_sensors=6)
            gap = dcmp_to_gap(inst)
            registry = MetricsRegistry()
            with use_registry(registry):
                got = local_ratio_gap(gap)
            assignment, tentative, profit, updates = local_ratio_gap_oracle(
                gap, solve_knapsack
            )
            assert got.assignment == assignment
            assert got.tentative == tentative
            assert got.profit == profit
            counters = registry.dump()["counters"]
            assert counters["gap.residual_updates"] == updates


# ----------------------------------------------------------------------
# Allocation accounting
# ----------------------------------------------------------------------
class TestAllocationEquivalence:
    @pytest.mark.parametrize("seed", [1, 8, 21])
    def test_algorithm_output_stats_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, num_slots=16, num_sensors=6)
        alloc = offline_appro(inst)
        collected, energy, bits, problems, _ = allocation_stats_oracle(alloc, inst)
        assert problems == []
        assert alloc.violations(inst) == []
        assert alloc.collected_bits(inst) == collected
        assert alloc.energy_spent(inst).tolist() == energy
        assert alloc.per_sensor_bits(inst).tolist() == bits

    @pytest.mark.parametrize("seed", [2, 9])
    def test_violation_messages_match_oracle(self, seed):
        # Corrupt an allocation: unknown sensors, out-of-window slots.
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, num_slots=12, num_sensors=4)
        owner = np.full(inst.num_slots, UNASSIGNED, dtype=np.int64)
        owner[0] = 99  # unknown sensor
        starts, ends = inst.window_bounds()
        unreachable = np.flatnonzero(starts > ends)
        if unreachable.size:
            owner[1] = unreachable[0]  # unreachable sensor
        early = np.flatnonzero((starts <= ends) & (ends < inst.num_slots - 1))
        if early.size:
            owner[inst.num_slots - 1] = early[0]  # past its window
        alloc = Allocation(owner)
        _, _, _, problems, _ = allocation_stats_oracle(alloc, inst)
        assert alloc.violations(inst) == problems
        assert problems  # the corruption must actually be detected

    def test_horizon_mismatch_matches_oracle(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, num_slots=10, num_sensors=3)
        alloc = Allocation(np.full(7, UNASSIGNED, dtype=np.int64))
        _, _, _, problems, _ = allocation_stats_oracle(alloc, inst)
        assert alloc.violations(inst) == problems == [
            "allocation horizon 7 != instance horizon 10"
        ]


@given(SEEDS)
def test_audit_and_certificate_match_scalar_oracle(seed):
    """The one audit pass against the scalar sweep on corrupt input:
    random instances with 0 to 6 sensors, owners drawn from [-1, n + 1]
    (unknown ids, out-of-window slots, overdrawn budgets) and, one time
    in five, the wrong horizon."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 7))
    t = int(rng.integers(1, 13))
    inst = random_instance(rng, num_slots=t, num_sensors=n, max_window=min(6, t))
    horizon = t if rng.random() < 0.8 else int(rng.integers(1, 16))
    alloc = Allocation(rng.integers(-1, n + 2, size=horizon))
    collected, energy, bits, problems, records = allocation_stats_oracle(alloc, inst)

    audit = alloc.audit(inst)
    assert audit.objective == collected
    assert audit.spent.tolist() == energy
    assert alloc.per_sensor_bits(inst).tolist() == bits
    assert alloc.violations(inst) == problems
    assert audit.feasible == (not problems)

    cert = certify(inst, alloc, lp_bound_bits=0.0, exact_cell_limit=0)
    assert cert.objective_bits == collected
    assert cert.feasible == (not problems)
    if horizon == t:
        for name, expected in records.items():
            assert list(cert.check(name).violations) == expected
        budgets = inst.budgets_array().tolist()
        slack = min((b - e for b, e in zip(budgets, energy)), default=None)
        assert cert.check("budgets").slack == slack


@given(st.lists(st.floats(allow_nan=False, width=64), max_size=60))
def test_ordered_sum_equals_the_sequential_loop(values):
    total = 0.0
    for v in values:
        total += v
    with np.errstate(all="ignore"):  # the loop overflows silently too
        got = ordered_sum(np.array(values, dtype=np.float64))
    if math.isnan(total):  # inf + -inf on the way
        assert math.isnan(got)
    else:
        assert got == total
        assert math.copysign(1.0, got) == math.copysign(1.0, total)


# ----------------------------------------------------------------------
# Hypothesis sweep: whole-pipeline equivalence on random instances
# ----------------------------------------------------------------------
@given(SEEDS)
def test_pipeline_matches_scalar_oracles(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=12, num_sensors=5)
    gap = dcmp_to_gap(inst)
    registry = MetricsRegistry()
    with use_registry(registry):
        got = local_ratio_gap(gap)
    assignment, _, profit, updates = local_ratio_gap_oracle(gap, solve_knapsack)
    assert got.assignment == assignment
    assert got.profit == profit
    assert registry.dump()["counters"]["gap.residual_updates"] == updates

    alloc = offline_appro(inst)
    collected, energy, bits, problems, _ = allocation_stats_oracle(alloc, inst)
    assert problems == []
    assert alloc.collected_bits(inst) == collected
    assert alloc.energy_spent(inst).tolist() == energy
    assert alloc.per_sensor_bits(inst).tolist() == bits


@given(SEEDS)
def test_knapsack_property_random_streams(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    profits, weights, capacity = _random_knapsack(rng, n)
    got = knapsack_few_weights(profits, weights, capacity)
    selected, profit, weight = knapsack_few_weights_oracle(
        profits, weights, capacity
    )
    assert got.selected == selected
    assert got.profit == profit
    assert got.weight == weight
    assert weight <= capacity + 1e-12 or not selected


# ----------------------------------------------------------------------
# Batch API: run_tours ≡ sequential run_tour
# ----------------------------------------------------------------------
def test_run_tours_matches_sequential_run_tour():
    config = ScenarioConfig(num_sensors=40, path_length=1500.0)
    names = ["Offline_Appro", "Baseline[greedy_profit]", "Baseline[round_robin]"]
    specs = [TourSpec(config=config, algorithm=name, seed=11) for name in names]
    batch = run_tours(specs)
    for name, got in zip(names, batch):
        scenario = config.build(seed=11)
        expected = run_tour(scenario, get_algorithm(name), mutate=False)
        assert got.collected_bits == expected.collected_bits
        assert np.array_equal(
            got.allocation.slot_owner, expected.allocation.slot_owner
        )


# ----------------------------------------------------------------------
# Online framework: the interval merge
# ----------------------------------------------------------------------
def assert_same_online_result(got, want):
    np.testing.assert_array_equal(got.allocation.slot_owner, want.allocation.slot_owner)
    assert got.collected_bits == want.collected_bits
    np.testing.assert_array_equal(got.residual_budgets, want.residual_budgets)
    assert got.intervals == want.intervals
    assert got.messages == want.messages
    # Counter equality ignores key order; the reports read it.
    for name in ("broadcasts", "receptions", "sensor_receptions", "sensor_transmissions"):
        assert list(getattr(got.messages, name)) == list(getattr(want.messages, name))


class TestOnlineMergeEquivalence:
    @pytest.mark.parametrize("maxmatch", [False, True], ids=["appro", "maxmatch"])
    @pytest.mark.parametrize(
        "num_sensors, path_length, seed",
        [
            # The quick bench grid, at its seed and one other.
            (30, 1_500.0, 7),
            (60, 1_500.0, 7),
            (30, 1_500.0, 11),
            (60, 1_500.0, 11),
            # The 10 km n = 100 and 300 shapes of the MaxMatch sweep.
            (100, 10_000.0, 1),
            (100, 10_000.0, 2),
            (300, 10_000.0, 1),
            (300, 10_000.0, 2),
        ],
    )
    def test_online_tours_match_per_slot_oracle(
        self, maxmatch, num_sensors, path_length, seed
    ):
        scenario = ScenarioConfig(
            num_sensors=num_sensors,
            path_length=path_length,
            fixed_power=0.3 if maxmatch else None,
        ).build(seed=seed)
        instance = scenario.instance()
        if maxmatch:
            got = online_maxmatch(instance, scenario.gamma)
            scheduler = MatchingIntervalScheduler(fixed_power_of(instance))
        else:
            got = online_appro(instance, scenario.gamma)
            scheduler = GapIntervalScheduler()
        want = run_online_reference(instance, scenario.gamma, scheduler)
        assert sum(rec.assigned_slots for rec in want.intervals) > 0
        assert_same_online_result(got, want)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fractional_profits_match_per_slot_oracle(self, seed):
        # The paper's rates make every profit a whole number of bits, so
        # any summation order agrees; fractional rates pin the order.
        instance = random_instance(
            np.random.default_rng(seed),
            num_slots=60,
            num_sensors=15,
            max_window=24,
            rate_choices=(0.1, 0.7, 1.3, 2.9),
        )
        args = (instance, 12, GapIntervalScheduler())
        want = run_online_reference(*args)
        assert max(rec.assigned_slots for rec in want.intervals) >= 8
        assert_same_online_result(run_online(*args), want)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_lossy_probes_match_per_slot_oracle(self, seed):
        scenario = ScenarioConfig(num_sensors=60, path_length=1_500.0).build(seed=seed)
        instance = scenario.instance()
        args = (instance, scenario.gamma, GapIntervalScheduler(), 0.3, seed)
        assert_same_online_result(run_online(*args), run_online_reference(*args))
