"""Offline_MaxMatch: exactness on the fixed-power special case."""

import numpy as np
import pytest

from repro.core.exact import brute_force_optimum
from repro.core.lp import dcmp_lp_upper_bound
from repro.core.matching import max_weight_b_matching
from repro.core.offline_maxmatch import (
    build_matching_edges,
    fixed_power_of,
    offline_maxmatch,
)
from repro.online.online_maxmatch import online_maxmatch
from tests.conftest import make_instance, random_instance
from tests.oracles import lsa_b_matching, mcmf_b_matching

SOLVERS = {
    "flow": mcmf_b_matching,
    "lsa": lsa_b_matching,
    "lp": max_weight_b_matching,
}


def fixed_instance(rng, **kwargs):
    return random_instance(rng, fixed_power=0.3, **kwargs)


class TestFixedPowerDetection:
    def test_detects_single_power(self, rng):
        inst = fixed_instance(rng)
        assert fixed_power_of(inst) == pytest.approx(0.3)

    def test_rejects_multi_power(self, rng):
        inst = random_instance(rng, num_slots=10, num_sensors=5)
        with pytest.raises(ValueError, match="single-power"):
            fixed_power_of(inst)

    def test_rejects_empty(self):
        inst = make_instance(
            3, 1.0, [{"window": None, "rates": [], "powers": [], "budget": 1.0}]
        )
        with pytest.raises(ValueError):
            fixed_power_of(inst)

    def test_multi_power_raises_from_both_entry_points(self):
        """Only an instance where nothing can transmit is an empty tour;
        one with two powers is still an error from both algorithms."""
        inst = make_instance(
            4,
            1.0,
            [
                {"window": (0, 1), "rates": [5.0, 5.0], "powers": [0.3, 0.3], "budget": 1.0},
                {"window": (2, 3), "rates": [9.0, 0.0], "powers": [0.22, 0.3], "budget": 1.0},
            ],
        )
        with pytest.raises(ValueError, match="not single-power"):
            offline_maxmatch(inst)
        with pytest.raises(ValueError, match="not single-power"):
            online_maxmatch(inst, 2)

    def test_zero_rate_slots_ignored_for_detection(self):
        # A zero-rate slot's power is irrelevant (never transmitted).
        inst = make_instance(
            2,
            1.0,
            [
                {
                    "window": (0, 1),
                    "rates": [5.0, 0.0],
                    "powers": [0.3, 0.9],
                    "budget": 2.0,
                }
            ],
        )
        assert fixed_power_of(inst) == pytest.approx(0.3)


class TestEdges:
    def test_capacity_formula(self):
        inst = make_instance(
            4,
            1.0,
            [
                {
                    "window": (0, 3),
                    "rates": [1.0, 2.0, 3.0, 4.0],
                    "powers": [0.5] * 4,
                    "budget": 1.6,  # floor(1.6/0.5) = 3
                }
            ],
        )
        edges, caps = build_matching_edges(inst)
        assert caps[0] == 3
        assert len(edges) == 4

    def test_capacity_limited_by_window(self):
        inst = make_instance(
            4,
            1.0,
            [
                {
                    "window": (1, 2),
                    "rates": [1.0, 2.0],
                    "powers": [0.5, 0.5],
                    "budget": 99.0,
                }
            ],
        )
        _, caps = build_matching_edges(inst)
        assert caps[0] == 2

    def test_zero_rate_slots_not_edges(self):
        inst = make_instance(
            3,
            1.0,
            [
                {
                    "window": (0, 2),
                    "rates": [1.0, 0.0, 2.0],
                    "powers": [0.5] * 3,
                    "budget": 9.0,
                }
            ],
        )
        edges, _ = build_matching_edges(inst)
        assert {(u, v) for u, v, _ in edges} == {(0, 0), (0, 2)}


class TestOptimality:
    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_matches_brute_force(self, rng, solver):
        """The whole-tour reduction is exact: its b-matching, solved by
        the engine or by either oracle, reaches the brute-force optimum,
        and so does ``offline_maxmatch``."""
        for _ in range(12):
            inst = fixed_instance(rng, num_slots=8, num_sensors=3, max_window=5)
            opt = brute_force_optimum(inst).collected_bits(inst)
            edges, caps = build_matching_edges(inst)
            matched = SOLVERS[solver](edges, caps, inst.num_slots).weight
            assert matched == pytest.approx(opt)
            got = offline_maxmatch(inst).collected_bits(inst)
            assert got == pytest.approx(opt)

    def test_feasible(self, rng):
        for _ in range(10):
            inst = fixed_instance(rng, num_slots=12, num_sensors=5)
            offline_maxmatch(inst).check_feasible(inst)

    def test_close_to_lp_bound(self, rng):
        """For the special case the LP gap comes only from the floor() in
        the affordability cap; with budgets on the 0.3 J grid it is 0."""
        inst = make_instance(
            6,
            1.0,
            [
                {
                    "window": (0, 5),
                    "rates": [1.0, 5.0, 3.0, 2.0, 4.0, 1.0],
                    "powers": [0.3] * 6,
                    "budget": 0.9,
                },
                {
                    "window": (2, 5),
                    "rates": [4.0, 4.0, 4.0, 4.0],
                    "powers": [0.3] * 4,
                    "budget": 0.6,
                },
            ],
        )
        got = offline_maxmatch(inst).collected_bits(inst)
        lp = dcmp_lp_upper_bound(inst)
        assert got == pytest.approx(lp)

    def test_explicit_fixed_power_override(self, rng):
        inst = fixed_instance(rng, num_slots=8, num_sensors=3)
        a = offline_maxmatch(inst).collected_bits(inst)
        b = offline_maxmatch(inst, fixed_power=0.3).collected_bits(inst)
        assert a == pytest.approx(b)

    def test_beats_or_ties_appro(self, rng):
        from repro.core.offline_appro import offline_appro

        for _ in range(10):
            inst = fixed_instance(rng, num_slots=10, num_sensors=4)
            mm = offline_maxmatch(inst).collected_bits(inst)
            ap = offline_appro(inst).collected_bits(inst)
            assert mm >= ap - 1e-9
