"""Equivalence suite: one exact path model vs. the two it replaced.

:class:`~repro.network.geometry.PiecewiseLinearPath` is the only path
class.  On the paper's straight road, the two-waypoint path
``[(0, 0), (L, 0)]``, its points and coverage windows must be
bit-identical to the closed-form straight road
(:class:`tests.oracles.LinearPathReference`), so those comparisons are
exact ``==`` with signed zeros.  On planned tours it replaces a 0.5 m
sampling grid (:func:`tests.oracles.sampled_coverage_window`) with an
exact segment–disc intersection: the exact window contains the sampled
one, each end within one grid step.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.instance import DataCollectionInstance
from repro.network.path import SinkTrajectory
from repro.planning import PlannerConfig
from repro.sim.scenario import ScenarioConfig
from tests.conftest import straight_road
from tests.oracles import LinearPathReference, sampled_coverage_window, sampling_step

LENGTHS = (1500.0, 10_000.0, 1001.0, 0.1 + 0.2)
RADII = (200.0, 37.5, 0.1 + 0.2)


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    if got.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want))


def edge_positions(length, radius):
    """Sensors at both ends, on ``|y| = R`` and just beyond it, with
    chords that touch or miss ``[0, L]``, and at ``x < 0`` / ``x > L``."""
    above = np.nextafter(radius, np.inf)
    return np.array(
        [
            (0.0, 0.0), (length, 0.0), (0.0, radius), (0.0, -radius),
            (length, radius), (length, -radius), (length / 2, radius),
            (length / 2, -radius), (length / 2, above), (length / 2, -above),
            (-radius, 0.0), (length + radius, 0.0),
            (-radius - 1.0, 0.0), (length + radius + 1.0, 0.0),
            (-radius / 2, 0.0), (-radius / 2, radius / 2), (-radius / 2, -radius),
            (length + radius / 2, radius / 3), (length / 3, -0.0), (-0.5, 0.0),
        ]
    )


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("radius", RADII)
def test_straight_coverage_window_equals_chord(length, radius):
    rng = np.random.default_rng(int(length * 7 + radius))
    xy = np.vstack(
        [
            edge_positions(length, radius),
            np.column_stack(
                [
                    rng.uniform(-2 * radius, length + 2 * radius, 400),
                    rng.uniform(-1.2 * radius, 1.2 * radius, 400),
                ]
            ),
        ]
    )
    got = straight_road(length).coverage_window(xy, radius)
    want = LinearPathReference(length).coverage_window(xy, radius)
    for g, w in zip(got, want):
        assert_bit_identical(g, w)


@pytest.mark.parametrize("length", LENGTHS)
def test_straight_point_at_equals_closed_form(length):
    rng = np.random.default_rng(int(length))
    arcs = np.concatenate(
        [
            rng.uniform(-10.0, length + 10.0, 500),
            (np.arange(64) + 0.5) * (length / 64),
            [0.0, length, -1.0, length + 1.0, np.nextafter(length, 0.0)],
        ]
    )
    path, ref = straight_road(length), LinearPathReference(length)
    assert_bit_identical(path.point_at(arcs), ref.point_at(arcs))
    for arc in arcs[-5:].tolist():
        assert_bit_identical(path.point_at(arc), ref.point_at(arc))


#: perfbench's straight-road shapes: appro-sweep (and service, n=100),
#: maxmatch-sweep and perpetual.
STRAIGHT_SHAPES = (
    dict(num_sensors=100),
    dict(num_sensors=300),
    dict(num_sensors=600),
    dict(num_sensors=60, path_length=1_500.0, fixed_power=0.3),
    dict(num_sensors=100, path_length=10_000.0, fixed_power=0.3),
    dict(num_sensors=300, path_length=10_000.0, fixed_power=0.3),
    dict(num_sensors=300, start_time=17 * 3600.0),
)


@pytest.mark.parametrize("shape", STRAIGHT_SHAPES, ids=lambda s: "-".join(map(str, s.values())))
def test_straight_instances_equal_closed_form_path(shape):
    config = ScenarioConfig(**shape)
    for seed in (0, 1):
        scenario = config.build(seed=seed)
        got = scenario.instance()
        reference = SinkTrajectory(
            LinearPathReference(config.path_length), config.sink_speed, config.slot_duration
        )
        want = DataCollectionInstance.from_network(
            scenario.network, reference, scenario.rate_table, scenario.network.charges()
        )
        assert got.num_slots == want.num_slots
        for name in ("sensor", "slot", "rates", "powers", "profits", "costs", "offsets"):
            assert_bit_identical(getattr(got.flat_pairs(), name), getattr(want.flat_pairs(), name))
        for g, w in zip(got.window_bounds(), want.window_bounds()):
            assert_bit_identical(g, w)
        assert_bit_identical(got.budgets_array(), want.budgets_array())


#: The bench's planner cells: quick (n=30, 1.5 km) and full (n=100, 3 km).
PLANNED_SHAPES = [
    (kind, n, width)
    for kind in ("plane_sweep", "multi_sink")
    for n, width in ((30, 1_500.0), (100, 3_000.0))
]


@pytest.mark.parametrize("kind,num_sensors,width", PLANNED_SHAPES)
def test_planned_windows_contain_sampled_within_one_step(kind, num_sensors, width):
    config = ScenarioConfig(
        num_sensors=num_sensors,
        path_length=width,
        max_offset=300.0,
        sink_speed=10.0,
        planner=PlannerConfig(kind=kind),
    )
    for seed in range(3):
        scenario = config.build(seed=seed)
        path = scenario.trajectory.path
        xy = scenario.network.positions
        radius = scenario.rate_table.max_range
        lo, hi = path.coverage_window(xy, radius)
        lo_grid, hi_grid = sampled_coverage_window(path, xy, radius)
        step = sampling_step(path)
        reachable = lo <= hi
        assert np.array_equal(reachable, lo_grid <= hi_grid)
        assert np.all(lo[reachable] <= lo_grid[reachable])
        assert np.all(hi[reachable] >= hi_grid[reachable])
        assert np.all(lo_grid[reachable] - lo[reachable] <= step)
        assert np.all(hi[reachable] - hi_grid[reachable] <= step)


#: Peak traced memory allowed for an n = 600 plane-sweep instance build
#: on the default 10 km field (a 27.8 km serpentine).  The exact windows
#: need about 8 MiB; the sampling grid they replaced needed about 765 MiB.
PLANNED_BUILD_PEAK_BYTES = 32 * 2**20


def test_plane_sweep_instance_build_memory_bound():
    scenario = ScenarioConfig(
        num_sensors=600, planner=PlannerConfig(kind="plane_sweep")
    ).build(seed=1)
    tracemalloc.start()
    try:
        scenario.instance()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PLANNED_BUILD_PEAK_BYTES, peak
