"""Hypothesis property suite over randomly generated DCMP instances.

These are the repository-wide invariants from DESIGN.md §7, driven by
arbitrary (not hand-picked) instances, plus the metamorphic relations
the differential fuzzer checks (slot-order reversal, sensor relabeling,
uniform profit/energy scaling).

Example counts are governed by the Hypothesis profiles registered in
``tests/conftest.py`` — ``HYPOTHESIS_PROFILE=ci`` runs 100 examples per
property, the default ``dev`` profile 25.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.baselines import greedy_by_profit, random_allocation
from repro.core.exact import brute_force_optimum
from repro.core.lp import dcmp_lp_upper_bound
from repro.core.offline_appro import offline_appro
from repro.core.offline_maxmatch import offline_maxmatch
from repro.online.online_appro import online_appro
from repro.online.online_maxmatch import online_maxmatch
from repro.verify.fuzz import (
    relabel_sensors,
    reverse_slots,
    scale_energy,
    scale_profits,
)
from tests.conftest import random_instance

SEEDS = st.integers(0, 100_000)


@given(SEEDS)
def test_every_algorithm_feasible(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=12, num_sensors=5)
    gamma = int(rng.integers(1, 7))
    offline_appro(inst).check_feasible(inst)
    greedy_by_profit(inst).check_feasible(inst)
    random_allocation(inst, seed).check_feasible(inst)
    online_appro(inst, gamma).allocation.check_feasible(inst)


@given(SEEDS)
def test_fixed_power_algorithms_feasible_and_ordered(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=12, num_sensors=5, fixed_power=0.3)
    gamma = int(rng.integers(1, 7))
    mm = offline_maxmatch(inst)
    mm.check_feasible(inst)
    om = online_maxmatch(inst, gamma)
    om.allocation.check_feasible(inst)
    # Offline optimum dominates the online variant.
    assert om.collected_bits <= mm.collected_bits(inst) + 1e-9


@given(SEEDS)
def test_offline_appro_half_optimal(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=7, num_sensors=3, max_window=4)
    opt = brute_force_optimum(inst).collected_bits(inst)
    got = offline_appro(inst).collected_bits(inst)
    assert got >= opt / 2.0 - 1e-9


@given(SEEDS)
def test_maxmatch_exactly_optimal(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=7, num_sensors=3, max_window=4, fixed_power=0.3)
    opt = brute_force_optimum(inst).collected_bits(inst)
    got = offline_maxmatch(inst).collected_bits(inst)
    assert got == pytest.approx(opt)


@given(SEEDS)
def test_lp_bound_dominates_exact_optimum(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=7, num_sensors=3, max_window=4)
    opt = brute_force_optimum(inst).collected_bits(inst)
    assert dcmp_lp_upper_bound(inst) >= opt - 1e-6


@given(SEEDS, st.integers(1, 8))
def test_online_energy_conservation(seed, gamma):
    """Online residual budgets = initial budgets - spend, all >= 0."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=14, num_sensors=5)
    result = online_appro(inst, gamma)
    budgets = np.array([inst.budget_of(i) for i in range(inst.num_sensors)])
    spent = result.allocation.energy_spent(inst)
    np.testing.assert_allclose(result.residual_budgets, budgets - spent, atol=1e-9)
    assert np.all(result.residual_budgets >= -1e-9)


@given(SEEDS)
def test_determinism_of_all_deterministic_algorithms(seed):
    rng1 = np.random.default_rng(seed)
    rng2 = np.random.default_rng(seed)
    inst1 = random_instance(rng1, num_slots=10, num_sensors=4)
    inst2 = random_instance(rng2, num_slots=10, num_sensors=4)
    a1 = offline_appro(inst1)
    a2 = offline_appro(inst2)
    np.testing.assert_array_equal(a1.slot_owner, a2.slot_owner)


# ----------------------------------------------------------------------
# Metamorphic relations (shared with the differential fuzzer)
# ----------------------------------------------------------------------
@given(SEEDS)
def test_metamorphic_reversal_preserves_feasibility_and_bound(seed):
    """Mirroring the time axis changes neither the LP bound nor the
    solvers' feasibility."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=10, num_sensors=4)
    reversed_inst = reverse_slots(inst)
    assert dcmp_lp_upper_bound(reversed_inst) == pytest.approx(
        dcmp_lp_upper_bound(inst), rel=1e-7, abs=1e-6
    )
    offline_appro(reversed_inst).check_feasible(reversed_inst)
    # Reversing twice is the identity.
    twice = reverse_slots(reversed_inst)
    for a, b in zip(inst.window_bounds(), twice.window_bounds()):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(inst.flat_pairs().rates, twice.flat_pairs().rates)


@given(SEEDS)
def test_metamorphic_relabeling_is_pure_renaming(seed):
    """Permuting sensor ids changes no aggregate quantity."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=8, num_sensors=4, max_window=4)
    relabeled = relabel_sensors(inst)
    assert dcmp_lp_upper_bound(relabeled) == pytest.approx(
        dcmp_lp_upper_bound(inst), rel=1e-7, abs=1e-6
    )
    assert brute_force_optimum(relabeled).collected_bits(relabeled) == pytest.approx(
        brute_force_optimum(inst).collected_bits(inst)
    )
    offline_appro(relabeled).check_feasible(relabeled)


@given(SEEDS)
def test_metamorphic_profit_scaling_scales_objectives(seed):
    """Scaling every rate by c scales the LP bound and the exact
    optimum by exactly c; feasibility is untouched."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=8, num_sensors=3, max_window=4, fixed_power=0.3)
    scaled = scale_profits(inst, 3.0)
    assert dcmp_lp_upper_bound(scaled) == pytest.approx(
        3.0 * dcmp_lp_upper_bound(inst), rel=1e-7, abs=1e-6
    )
    assert offline_maxmatch(scaled).collected_bits(scaled) == pytest.approx(
        3.0 * offline_maxmatch(inst).collected_bits(inst), rel=1e-7, abs=1e-6
    )


@given(SEEDS)
def test_metamorphic_energy_scaling_is_invariant(seed):
    """Jointly scaling powers and budgets leaves the feasible set — and
    hence the LP bound and exact objective — unchanged."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=8, num_sensors=3, max_window=4, fixed_power=0.3)
    scaled = scale_energy(inst, 2.0)
    assert dcmp_lp_upper_bound(scaled) == pytest.approx(
        dcmp_lp_upper_bound(inst), rel=1e-7, abs=1e-6
    )
    assert offline_maxmatch(scaled).collected_bits(scaled) == pytest.approx(
        offline_maxmatch(inst).collected_bits(inst), rel=1e-7, abs=1e-6
    )
    offline_appro(scaled).check_feasible(scaled)
