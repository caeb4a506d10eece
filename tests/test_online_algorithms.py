"""Online_Appro and Online_MaxMatch behaviour."""

import importlib

import numpy as np
import pytest

from repro.core.exact import brute_force_optimum
from repro.core.offline_appro import offline_appro
from repro.core.offline_maxmatch import build_matching_edges, offline_maxmatch
from repro.online.framework import run_online
from repro.online.online_appro import online_appro
from repro.online.online_maxmatch import MatchingIntervalScheduler, online_maxmatch
from repro.sim.scenario import ScenarioConfig
from tests.conftest import make_instance, random_instance
from tests.oracles import lsa_b_matching, mcmf_b_matching


def fixed_instance(rng, **kwargs):
    return random_instance(rng, fixed_power=0.3, **kwargs)


class TestOnlineAppro:
    def test_feasible(self, rng):
        for _ in range(8):
            inst = random_instance(rng, num_slots=20, num_sensors=6)
            online_appro(inst, 5).allocation.check_feasible(inst)

    def test_never_beats_offline_on_paper_scenarios(self):
        for seed in range(4):
            scenario = ScenarioConfig(num_sensors=50, path_length=3000.0).build(seed=seed)
            inst = scenario.instance()
            off = offline_appro(inst).collected_bits(inst)
            on = online_appro(inst, scenario.gamma).collected_bits
            # Locality can occasionally help the heuristic, but on the
            # paper's geometry the offline pass dominates.
            assert on <= off * 1.02 + 1e-9

    def test_within_fraction_of_offline(self):
        """The paper reports online >= 93% of offline at default setting."""
        ratios = []
        for seed in range(5):
            scenario = ScenarioConfig(num_sensors=80, path_length=4000.0).build(seed=seed)
            inst = scenario.instance()
            off = offline_appro(inst).collected_bits(inst)
            on = online_appro(inst, scenario.gamma).collected_bits
            ratios.append(on / off)
        assert np.mean(ratios) >= 0.85

    def test_knapsack_method_passthrough(self, rng):
        """The framework runs any interval scheduler: the local-ratio
        pass with another knapsack solver stays feasible."""

        class GreedyScheduler:
            def schedule(self, sub_instance):
                return offline_appro(sub_instance, knapsack_method="greedy")

        inst = random_instance(rng, num_slots=16, num_sensors=5)
        run_online(inst, 4, GreedyScheduler()).allocation.check_feasible(inst)


class TestOnlineMaxMatch:
    def test_feasible(self, rng):
        for _ in range(8):
            inst = fixed_instance(rng, num_slots=20, num_sensors=6)
            online_maxmatch(inst, 5).allocation.check_feasible(inst)

    def test_never_beats_offline_optimum(self, rng):
        for _ in range(8):
            inst = fixed_instance(rng, num_slots=16, num_sensors=5)
            off = offline_maxmatch(inst).collected_bits(inst)
            on = online_maxmatch(inst, 4).collected_bits
            assert on <= off + 1e-9

    def test_interval_schedule_is_optimal(self):
        """Within a single interval covering the whole horizon (and full
        probe visibility), online equals the offline optimum."""
        inst = make_instance(
            4,
            1.0,
            [
                {
                    "window": (0, 3),
                    "rates": [4.0, 3.0, 2.0, 1.0],
                    "powers": [0.3] * 4,
                    "budget": 0.65,  # 2 slots
                },
                {
                    "window": (0, 3),
                    "rates": [1.0, 2.0, 5.0, 5.0],
                    "powers": [0.3] * 4,
                    "budget": 0.9,  # 3 slots
                },
            ],
        )
        on = online_maxmatch(inst, 4).collected_bits
        opt = brute_force_optimum(inst).collected_bits(inst)
        assert on == pytest.approx(opt)

    def test_explicit_power_matches_detection(self, rng):
        inst = fixed_instance(rng, num_slots=16, num_sensors=5)
        auto = online_maxmatch(inst, 4).collected_bits
        manual = online_maxmatch(inst, 4, fixed_power=0.3).collected_bits
        assert auto == pytest.approx(manual)

    def test_engine_equivalence(self, rng, monkeypatch):
        """Solving every interval with either oracle instead of the LP
        engine collects the same bits on this instance."""
        # The package re-exports the function under the module's name.
        module = importlib.import_module("repro.online.online_maxmatch")
        inst = fixed_instance(rng, num_slots=16, num_sensors=5)
        lp = online_maxmatch(inst, 4).collected_bits
        for oracle in (mcmf_b_matching, lsa_b_matching):
            monkeypatch.setattr(module, "max_weight_b_matching", oracle)
            assert online_maxmatch(inst, 4).collected_bits == pytest.approx(lp)

    @pytest.mark.parametrize("num_sensors", [30, 60])
    def test_every_interval_matches_oracle(self, num_sensors):
        """Each interval schedule reaches the min-cost-flow oracle's
        optimum on that interval's sub-instance."""
        scenario = ScenarioConfig(
            num_sensors=num_sensors, path_length=1500.0, fixed_power=0.3
        ).build(seed=7)
        inst = scenario.instance()
        weights = []

        class OracleCheckedScheduler(MatchingIntervalScheduler):
            def schedule(self, sub_instance):
                allocation = super().schedule(sub_instance)
                edges, caps = build_matching_edges(sub_instance, self.fixed_power)
                oracle = mcmf_b_matching(edges, caps, sub_instance.num_slots)
                weights.append((allocation.collected_bits(sub_instance), oracle.weight))
                return allocation

        checked = run_online(inst, scenario.gamma, OracleCheckedScheduler(0.3))
        assert checked.collected_bits == online_maxmatch(inst, scenario.gamma).collected_bits
        assert sum(got > 0 for got, _ in weights) > 1
        for got, want in weights:
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_scheduler_respects_copy_cap(self):
        """n_i' = floor(P/(P' tau)) limits slots per interval."""
        inst = make_instance(
            4,
            1.0,
            [
                {
                    "window": (0, 3),
                    "rates": [4.0, 4.0, 4.0, 4.0],
                    "powers": [0.3] * 4,
                    "budget": 0.65,  # only 2 slots affordable
                }
            ],
        )
        result = online_maxmatch(inst, 4)
        assert result.allocation.num_assigned() == 2

    def test_beats_or_ties_online_appro_on_average(self):
        """Fig. 3's qualitative claim: matching >= GAP online, on the
        paper's geometry, on average."""
        diffs = []
        for seed in range(5):
            scenario = ScenarioConfig(
                num_sensors=60, path_length=3000.0, fixed_power=0.3
            ).build(seed=seed)
            inst = scenario.instance()
            mm = online_maxmatch(inst, scenario.gamma).collected_bits
            ap = online_appro(inst, scenario.gamma).collected_bits
            diffs.append(mm - ap)
        assert np.mean(diffs) >= -1e-6
