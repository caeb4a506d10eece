"""Sink trajectory: slots, anchors, gamma, availability windows."""

import numpy as np
import pytest

from repro.network.path import SinkTrajectory
from repro.utils.intervals import SlotInterval
from tests.conftest import straight_road


@pytest.fixture
def traj():
    # 1000 m path, 5 m/s, 1 s slots -> 200 slots of 5 m.
    return SinkTrajectory(straight_road(1000.0), speed=5.0, slot_duration=1.0)


def test_num_slots(traj):
    assert traj.num_slots == 200


def test_num_slots_floor():
    t = SinkTrajectory(straight_road(1001.0), speed=5.0, slot_duration=1.0)
    assert t.num_slots == 200  # floor(1001/5)


def test_tour_duration(traj):
    assert traj.tour_duration == pytest.approx(200.0)


def test_slot_length(traj):
    assert traj.slot_length_m == pytest.approx(5.0)


def test_zero_slot_tour_rejected():
    with pytest.raises(ValueError):
        SinkTrajectory(straight_road(3.0), speed=5.0, slot_duration=1.0)


def test_invalid_anchor():
    with pytest.raises(ValueError):
        SinkTrajectory(straight_road(100.0), 5.0, 1.0, anchor="middle")


def test_midpoint_anchor(traj):
    assert traj.arc_at_slot(0) == pytest.approx(2.5)
    assert traj.arc_at_slot(10) == pytest.approx(52.5)


def test_start_anchor():
    t = SinkTrajectory(straight_road(1000.0), 5.0, 1.0, anchor="start")
    assert t.arc_at_slot(3) == pytest.approx(15.0)


def test_end_anchor():
    t = SinkTrajectory(straight_road(1000.0), 5.0, 1.0, anchor="end")
    assert t.arc_at_slot(3) == pytest.approx(20.0)


def test_position_at_slot(traj):
    np.testing.assert_allclose(traj.position_at_slot(0), [2.5, 0.0])


def test_distances_to(traj):
    xy = np.array([2.5, 4.0])
    d = traj.distances_to(xy, np.array([0]))
    assert d[0] == pytest.approx(4.0)


def test_gamma_paper_defaults():
    # R=200, r_s=5, tau=1 -> Gamma = 40.
    t = SinkTrajectory(straight_road(10_000.0), 5.0, 1.0)
    assert t.gamma(200.0) == 40


def test_gamma_floor():
    t = SinkTrajectory(straight_road(10_000.0), 30.0, 4.0)  # slot = 120 m
    assert t.gamma(200.0) == 1  # floor(200/120)


def test_gamma_minimum_one():
    t = SinkTrajectory(straight_road(10_000.0), 100.0, 4.0)  # slot = 400 m > R
    assert t.gamma(200.0) == 1


def test_availability_centered_sensor(traj):
    # Sensor on the axis at x=500 with R=50: window arcs [450, 550],
    # anchors (j+0.5)*5 in that range -> slots 90..109.
    starts, ends = traj.availability(np.array([[500.0, 0.0]]), 50.0)
    assert starts.dtype == ends.dtype == np.int64
    assert (starts.tolist(), ends.tolist()) == ([90], [109])


def test_availability_unreachable(traj):
    starts, ends = traj.availability(np.array([[500.0, 80.0]]), 50.0)
    assert (starts.tolist(), ends.tolist()) == ([0], [-1])


def test_availability_clipped_at_path_start(traj):
    starts, ends = traj.availability(np.array([[0.0, 0.0]]), 50.0)
    assert starts[0] == 0 and ends[0] >= 0


def test_availability_anchor_distances_within_range(traj):
    """Every slot in A(v) has its anchor within R of the sensor."""
    rng = np.random.default_rng(0)
    xy = np.column_stack(
        [rng.uniform(0, 1000, 30), rng.uniform(-180, 180, 30)]
    )
    starts, ends = traj.availability(xy, 200.0)
    for pos, start, end in zip(xy, starts.tolist(), ends.tolist()):
        d = traj.distances_to(pos, np.arange(start, end + 1))
        assert np.all(d <= 200.0 + 1e-9)


def test_availability_maximal(traj):
    """Slots just outside A(v) have anchors beyond R (window is maximal)."""
    rng = np.random.default_rng(1)
    xy = np.column_stack(
        [rng.uniform(100, 900, 30), rng.uniform(-180, 180, 30)]
    )
    starts, ends = traj.availability(xy, 200.0)
    for pos, start, end in zip(xy, starts.tolist(), ends.tolist()):
        if start > end:
            continue
        for outside in (start - 1, end + 1):
            if 0 <= outside < traj.num_slots:
                d = traj.distances_to(pos, np.array([outside]))
                assert d[0] > 200.0 - 1e-9


def test_probe_interval_slots(traj):
    # R=50 -> Gamma=10.
    assert traj.probe_interval(0, 50.0) == SlotInterval(0, 9)
    assert traj.probe_interval(1, 50.0) == SlotInterval(10, 19)


def test_probe_interval_last_truncated():
    t = SinkTrajectory(straight_road(1025.0), 5.0, 1.0)  # T=205, Gamma=10
    last = t.num_probe_intervals(50.0) - 1
    assert t.probe_interval(last, 50.0) == SlotInterval(200, 204)


def test_probe_interval_out_of_range(traj):
    with pytest.raises(IndexError):
        traj.probe_interval(100, 50.0)
    with pytest.raises(IndexError):
        traj.probe_interval(-1, 50.0)


def test_num_probe_intervals(traj):
    assert traj.num_probe_intervals(50.0) == 20


def test_probe_intervals_partition_slots(traj):
    covered = []
    for j in range(traj.num_probe_intervals(50.0)):
        covered.extend(traj.probe_interval(j, 50.0))
    assert covered == list(range(traj.num_slots))
