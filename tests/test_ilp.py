"""Exact ILP solver.

Every instance here is also solved by the per-pair program
(:func:`tests.oracles.dcmp_ilp_reference`), and the ILP over runs of
identical slots must reach the same optimum.
"""

import numpy as np
import pytest

from repro.core.exact import brute_force_optimum
from repro.core.ilp import solve_dcmp_ilp
from repro.core.lp import dcmp_lp_upper_bound, load_highs
from repro.core.offline_appro import offline_appro
from repro.core.offline_maxmatch import offline_maxmatch
from tests.conftest import make_instance, random_instance
from tests.oracles import dcmp_ilp_reference


def solve(inst, **kwargs):
    """:func:`solve_dcmp_ilp`, checked against the per-pair oracle
    whenever it reports an optimum."""
    sol = solve_dcmp_ilp(inst, **kwargs)
    if sol.optimal:
        reference = dcmp_ilp_reference(inst).collected_bits(inst)
        assert sol.objective_bits == pytest.approx(reference, rel=1e-9, abs=1e-9)
    return sol


def test_matches_brute_force(rng):
    for _ in range(10):
        inst = random_instance(rng, num_slots=8, num_sensors=3, max_window=5)
        sol = solve(inst)
        assert sol.optimal
        opt = brute_force_optimum(inst).collected_bits(inst)
        assert sol.objective_bits == pytest.approx(opt)


def test_matches_maxmatch_on_special_case(rng):
    for _ in range(8):
        inst = random_instance(rng, num_slots=10, num_sensors=4, fixed_power=0.3)
        sol = solve(inst)
        mm = offline_maxmatch(inst).collected_bits(inst)
        assert sol.objective_bits == pytest.approx(mm)


def test_dominates_appro_and_below_lp(rng):
    for _ in range(8):
        inst = random_instance(rng, num_slots=12, num_sensors=5)
        sol = solve(inst)
        assert sol.objective_bits >= offline_appro(inst).collected_bits(inst) - 1e-6
        assert sol.objective_bits <= dcmp_lp_upper_bound(inst) + 1e-6


def test_allocation_feasible(rng):
    inst = random_instance(rng, num_slots=12, num_sensors=5)
    solve(inst).allocation.check_feasible(inst)


def test_empty_instance():
    inst = make_instance(
        3, 1.0, [{"window": None, "rates": [], "powers": [], "budget": 1.0}]
    )
    sol = solve(inst)
    assert sol.optimal
    assert sol.objective_bits == 0.0


def test_appro_guarantee_against_ilp_optimum(rng):
    """The 1/2 bound verified against the ILP (larger instances than the
    brute-force oracle can handle)."""
    for _ in range(5):
        inst = random_instance(rng, num_slots=20, num_sensors=8, max_window=8)
        opt = solve(inst).objective_bits
        got = offline_appro(inst).collected_bits(inst)
        assert got >= opt / 2.0 - 1e-9


def test_time_limit_returns_gracefully(rng):
    inst = random_instance(rng, num_slots=15, num_sensors=6)
    sol = solve(inst, time_limit=60.0)
    sol.allocation.check_feasible(inst)
    assert sol.objective_bits >= 0.0


def test_highs_runs_to_a_zero_gap(monkeypatch, rng):
    """``optimal`` means a proven zero gap: HiGHS's default stops at a
    1e-4 relative gap, so every solve passes ``mip_rel_gap=0``."""
    optimize, _ = load_highs()
    seen = []
    milp = optimize.milp

    def spy(*args, **kwargs):
        seen.append(kwargs["options"])
        return milp(*args, **kwargs)

    monkeypatch.setattr(optimize, "milp", spy)
    inst = random_instance(rng, num_slots=12, num_sensors=5)
    solve_dcmp_ilp(inst)
    solve_dcmp_ilp(inst, time_limit=30.0)
    assert seen == [{"mip_rel_gap": 0.0}, {"mip_rel_gap": 0.0, "time_limit": 30.0}]
