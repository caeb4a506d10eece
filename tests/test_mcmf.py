"""The min-cost max-flow reference oracle behind the matching tests."""

import numpy as np
import pytest

from tests.oracles import MinCostFlow


class TestBasics:
    def test_single_edge(self):
        net = MinCostFlow(2)
        net.add_edge(0, 1, 5.0, 2.0)
        flow, cost = net.solve(0, 1)
        assert flow == pytest.approx(5.0)
        assert cost == pytest.approx(10.0)

    def test_flow_on(self):
        net = MinCostFlow(2)
        eid = net.add_edge(0, 1, 5.0, 1.0)
        net.solve(0, 1)
        assert net.flow_on(eid) == pytest.approx(5.0)

    def test_flow_on_rejects_reverse_edge(self):
        net = MinCostFlow(2)
        eid = net.add_edge(0, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            net.flow_on(eid + 1)

    def test_no_path(self):
        net = MinCostFlow(3)
        net.add_edge(0, 1, 1.0, 1.0)
        flow, cost = net.solve(0, 2)
        assert flow == 0.0 and cost == 0.0

    def test_source_equals_sink_rejected(self):
        net = MinCostFlow(2)
        with pytest.raises(ValueError):
            net.solve(0, 0)

    def test_invalid_node_rejected(self):
        net = MinCostFlow(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 5, 1.0, 1.0)

    def test_negative_capacity_rejected(self):
        net = MinCostFlow(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1.0, 1.0)

    def test_max_flow_cap(self):
        net = MinCostFlow(2)
        net.add_edge(0, 1, 10.0, 1.0)
        flow, cost = net.solve(0, 1, max_flow=4.0)
        assert flow == pytest.approx(4.0)
        assert cost == pytest.approx(4.0)


class TestMinCostRouting:
    def test_prefers_cheap_path(self):
        # Two parallel 0->1->3 / 0->2->3 paths, one cheaper.
        net = MinCostFlow(4)
        net.add_edge(0, 1, 1.0, 1.0)
        net.add_edge(1, 3, 1.0, 1.0)
        net.add_edge(0, 2, 1.0, 5.0)
        net.add_edge(2, 3, 1.0, 5.0)
        flow, cost = net.solve(0, 3, max_flow=1.0)
        assert flow == pytest.approx(1.0)
        assert cost == pytest.approx(2.0)

    def test_classic_residual_rerouting(self):
        """The second augmentation must push flow back over the middle
        edge — the standard test that residual edges work."""
        net = MinCostFlow(4)
        net.add_edge(0, 1, 1.0, 1.0)
        net.add_edge(0, 2, 1.0, 10.0)
        net.add_edge(1, 2, 1.0, -8.0)  # attractive shortcut
        net.add_edge(1, 3, 1.0, 10.0)
        net.add_edge(2, 3, 1.0, 1.0)
        flow, cost = net.solve(0, 3)
        assert flow == pytest.approx(2.0)
        # Optimal: 0-1-2-3 (cost -6) + 0-2 / 1-3 rerouted... total = min.
        # Enumerate: paths 0-1-3 (11), 0-2-3 (11), 0-1-2-3 (-6).
        # Two units: 0-1-2-3 + 0-2?? cap(2-3)=1 so second unit 0-2 can't
        # reach 3 except via residual 2->1 (cost +8) then 1-3: 10+8+10=28.
        # Alternative pairing: 0-1-3 (11) + 0-2-3 (11) = 22 < (-6)+28=22.
        assert cost == pytest.approx(22.0)

    def test_negative_cost_edges_handled(self):
        net = MinCostFlow(3)
        net.add_edge(0, 1, 2.0, -5.0)
        net.add_edge(1, 2, 2.0, 1.0)
        flow, cost = net.solve(0, 2)
        assert flow == pytest.approx(2.0)
        assert cost == pytest.approx(-8.0)

    def test_only_negative_paths_stops_early(self):
        # One profitable path and one costly path: with the flag, only
        # the profitable unit is pushed.
        net = MinCostFlow(4)
        net.add_edge(0, 1, 1.0, -3.0)
        net.add_edge(1, 3, 1.0, 0.0)
        net.add_edge(0, 2, 1.0, 4.0)
        net.add_edge(2, 3, 1.0, 0.0)
        flow, cost = net.solve(0, 3, only_negative_paths=True)
        assert flow == pytest.approx(1.0)
        assert cost == pytest.approx(-3.0)

    def test_multi_unit_bottleneck_augmentation(self):
        net = MinCostFlow(3)
        net.add_edge(0, 1, 7.0, 1.0)
        net.add_edge(1, 2, 4.0, 1.0)
        flow, cost = net.solve(0, 2)
        assert flow == pytest.approx(4.0)
        assert cost == pytest.approx(8.0)


class TestAgainstNetworkx:
    def test_random_graphs_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(0)
        for trial in range(10):
            num_nodes = 8
            g = nx.DiGraph()
            g.add_nodes_from(range(num_nodes))
            net = MinCostFlow(num_nodes)
            for _ in range(16):
                u, v = rng.integers(0, num_nodes, 2)
                if u == v:
                    continue
                cap = int(rng.integers(1, 5))
                cost = int(rng.integers(1, 9))  # positive costs for nx
                if g.has_edge(int(u), int(v)):
                    continue
                g.add_edge(int(u), int(v), capacity=cap, weight=cost)
                net.add_edge(int(u), int(v), float(cap), float(cost))
            source, sink = 0, num_nodes - 1
            try:
                nx_cost = nx.max_flow_min_cost(g, source, sink)
                nx_value = sum(
                    flows.get(sink, 0) for flows in nx.max_flow_min_cost(g, source, sink).values()
                )
            except nx.NetworkXUnfeasible:  # pragma: no cover
                continue
            flow_value, cost_value = net.solve(source, sink)
            mincostflow = nx.max_flow_min_cost(g, source, sink)
            nx_total_cost = nx.cost_of_flow(g, mincostflow)
            nx_flow_value = sum(mincostflow[source].values()) - sum(
                flows.get(source, 0) for flows in mincostflow.values()
            )
            assert flow_value == pytest.approx(nx_flow_value)
            assert cost_value == pytest.approx(nx_total_cost)
