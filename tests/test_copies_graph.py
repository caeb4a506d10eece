"""Section VI's literal G' construction vs the b-matching formulation."""

import pytest

from repro.core.offline_maxmatch import offline_maxmatch
from tests.conftest import make_instance, random_instance
from tests.oracles import build_copies_graph, maxmatch_via_copies


def fixed_instance(rng, **kwargs):
    return random_instance(rng, fixed_power=0.3, **kwargs)


class TestConstruction:
    def test_copy_count_formula(self):
        inst = make_instance(
            6,
            1.0,
            [
                {
                    "window": (0, 5),
                    "rates": [1.0] * 6,
                    "powers": [0.3] * 6,
                    "budget": 1.0,  # floor(1/0.3) = 3
                }
            ],
        )
        graph = build_copies_graph(inst)
        assert graph.copy_counts[0] == 3
        assert graph.num_copies == 3

    def test_window_caps_copies(self):
        inst = make_instance(
            6,
            1.0,
            [{"window": (2, 3), "rates": [1.0] * 2, "powers": [0.3] * 2, "budget": 99.0}],
        )
        graph = build_copies_graph(inst)
        assert graph.copy_counts[0] == 2

    def test_gamma_caps_copies(self):
        inst = make_instance(
            8,
            1.0,
            [{"window": (0, 7), "rates": [1.0] * 8, "powers": [0.3] * 8, "budget": 99.0}],
        )
        graph = build_copies_graph(inst, gamma=3)
        assert graph.copy_counts[0] == 3

    def test_edge_copies_per_node_copy(self):
        inst = make_instance(
            4,
            1.0,
            [{"window": (0, 3), "rates": [1.0, 2.0, 0.0, 3.0], "powers": [0.3] * 4, "budget": 0.65}],
        )
        graph = build_copies_graph(inst)
        # 2 copies x 3 positive-rate slots = 6 edge copies (paper: each
        # edge duplicated once per node copy).
        assert graph.copy_counts[0] == 2
        assert len(graph.edges) == 6

    def test_zero_budget_contributes_no_copies(self):
        inst = make_instance(
            3,
            1.0,
            [{"window": (0, 2), "rates": [1.0] * 3, "powers": [0.3] * 3, "budget": 0.1}],
        )
        graph = build_copies_graph(inst)
        assert graph.num_copies == 0


class TestEquivalence:
    def test_matches_b_matching_formulation(self, rng):
        """The literal copies graph and the capacity formulation are the
        same optimisation problem."""
        for _ in range(12):
            inst = fixed_instance(rng, num_slots=10, num_sensors=4)
            via_copies = maxmatch_via_copies(inst).collected_bits(inst)
            via_caps = offline_maxmatch(inst).collected_bits(inst)
            assert via_copies == pytest.approx(via_caps)

    def test_allocation_feasible(self, rng):
        inst = fixed_instance(rng, num_slots=12, num_sensors=5)
        maxmatch_via_copies(inst).check_feasible(inst)

    def test_networkx_matching_agrees_on_tiny_graph(self):
        """Cross-check against networkx's general max-weight matching on
        a tiny G' (slow algorithm, tiny instance)."""
        nx = pytest.importorskip("networkx")

        inst = make_instance(
            4,
            1.0,
            [
                {"window": (0, 2), "rates": [5.0, 1.0, 4.0], "powers": [0.3] * 3, "budget": 0.65},
                {"window": (1, 3), "rates": [3.0, 3.0, 3.0], "powers": [0.3] * 3, "budget": 0.95},
            ],
        )
        graph = build_copies_graph(inst)
        g = nx.Graph()
        for copy, slot, weight in graph.edges:
            g.add_edge(("copy", copy), ("slot", slot), weight=weight)
        matching = nx.max_weight_matching(g)
        nx_weight = sum(g[u][v]["weight"] for u, v in matching)
        ours = offline_maxmatch(inst).collected_bits(inst)
        assert maxmatch_via_copies(inst).collected_bits(inst) == pytest.approx(nx_weight)
        assert ours == pytest.approx(nx_weight)
