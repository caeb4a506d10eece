"""Sensitivity to the slot-anchor convention (a documented model choice).

The paper never says where the sink "is" during a slot; we default to
the midpoint.  These tests pin the behaviour of all three conventions
and bound how much the choice matters — if it moved throughput
materially, the reproduction would be fragile.
"""

import numpy as np
import pytest

from repro.core.instance import DataCollectionInstance
from repro.core.offline_appro import offline_appro
from repro.network.network import SensorNetwork
from repro.network.path import SinkTrajectory
from repro.network.radio import CC2420_LIKE_TABLE
from tests.conftest import straight_road


ANCHORS = ["start", "midpoint", "end"]


def build(anchor, seed=0, n=60):
    rng = np.random.default_rng(seed)
    path = straight_road(3000.0)
    xy = np.column_stack([rng.uniform(0, 3000, n), rng.uniform(-180, 180, n)])
    net = SensorNetwork.build(xy, 10_000.0, rng.uniform(0.5, 6.0, n))
    traj = SinkTrajectory(path, 5.0, 1.0, anchor=anchor)
    inst = DataCollectionInstance.from_network(net, traj, CC2420_LIKE_TABLE, net.charges())
    return inst


@pytest.mark.parametrize("anchor", ANCHORS)
def test_all_anchors_produce_valid_instances(anchor):
    inst = build(anchor)
    offline_appro(inst).check_feasible(inst)


def test_anchor_shifts_windows_by_at_most_one_slot():
    insts = {a: build(a) for a in ANCHORS}
    for i in range(insts["midpoint"].num_sensors):
        windows = {a: insts[a].window_of(i) for a in ANCHORS}
        present = {a: w for a, w in windows.items() if w is not None}
        if len(present) < 2:
            continue
        starts = [w.start for w in present.values()]
        ends = [w.end for w in present.values()]
        assert max(starts) - min(starts) <= 1
        assert max(ends) - min(ends) <= 1


def test_throughput_insensitive_to_anchor():
    """Across seeds, the anchor convention moves mean throughput by a
    couple of percent at most — the model choice is benign."""
    means = {}
    for anchor in ANCHORS:
        vals = [
            offline_appro(build(anchor, seed=s)).collected_bits(build(anchor, seed=s))
            for s in range(4)
        ]
        means[anchor] = np.mean(vals)
    lo, hi = min(means.values()), max(means.values())
    assert hi / lo < 1.10, means
