"""Path geometry: the straight road and longer polylines, one class."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.geometry import PiecewiseLinearPath
from tests.conftest import straight_road
from tests.oracles import LinearPathReference


class TestLinearPath:
    def test_length(self):
        assert straight_road(100.0).length == 100.0

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            straight_road(0.0)

    def test_point_at_scalar(self):
        np.testing.assert_allclose(straight_road(100.0).point_at(40.0), [40.0, 0.0])

    def test_point_at_clips(self):
        path = straight_road(100.0)
        np.testing.assert_allclose(path.point_at(-5.0), [0.0, 0.0])
        np.testing.assert_allclose(path.point_at(105.0), [100.0, 0.0])

    def test_point_at_array(self):
        pts = straight_road(100.0).point_at(np.array([0.0, 50.0]))
        np.testing.assert_allclose(pts, [[0.0, 0.0], [50.0, 0.0]])

    def test_distance_scalar(self):
        assert straight_road(100.0).distance_from(np.array([3.0, 4.0]), 0.0) == pytest.approx(5.0)

    def test_distance_broadcast_matrix(self):
        path = straight_road(100.0)
        xy = np.array([[0.0, 3.0], [10.0, 0.0]])
        arcs = np.array([0.0, 10.0])
        d = path.distance_from(xy, arcs)
        assert d.shape == (2, 2)
        assert d[0, 0] == pytest.approx(3.0)
        assert d[1, 1] == pytest.approx(0.0)

    def test_coverage_window_on_axis(self):
        lo, hi = straight_road(1000.0).coverage_window(np.array([[500.0, 0.0]]), 100.0)
        assert lo[0] == pytest.approx(400.0)
        assert hi[0] == pytest.approx(600.0)

    def test_coverage_window_lateral_offset_shrinks(self):
        lo, hi = straight_road(1000.0).coverage_window(np.array([[500.0, 60.0]]), 100.0)
        assert hi[0] - lo[0] == pytest.approx(160.0)  # 2*sqrt(100^2-60^2)

    def test_coverage_window_unreachable(self):
        lo, hi = straight_road(1000.0).coverage_window(np.array([[500.0, 150.0]]), 100.0)
        assert lo[0] > hi[0]

    def test_coverage_window_clipped_at_ends(self):
        lo, hi = straight_road(1000.0).coverage_window(np.array([[20.0, 0.0]]), 100.0)
        assert lo[0] == pytest.approx(0.0)
        assert hi[0] == pytest.approx(120.0)

    def test_coverage_window_beyond_segment(self):
        # Sensor past the end of the path, out of reach of the segment.
        lo, hi = straight_road(1000.0).coverage_window(np.array([[1200.0, 0.0]]), 100.0)
        assert lo[0] > hi[0]

    @given(
        st.floats(0.0, 1000.0),
        st.floats(-99.0, 99.0),
        st.floats(10.0, 100.0),
    )
    def test_coverage_window_boundary_distance(self, x, y, radius):
        """Points strictly inside the window are within the radius."""
        path = straight_road(1000.0)
        lo, hi = path.coverage_window(np.array([[x, y]]), radius)
        if lo[0] <= hi[0]:
            mid = (lo[0] + hi[0]) / 2.0
            assert path.distance_from(np.array([x, y]), mid) <= radius + 1e-6


class TestPiecewiseLinearPath:
    def test_straight_polyline_equals_linear(self):
        poly = PiecewiseLinearPath([(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)])
        line = straight_road(100.0)
        arcs = np.linspace(0.0, 100.0, 11)
        np.testing.assert_array_equal(poly.point_at(arcs), line.point_at(arcs))

    def test_length_of_right_angle(self):
        poly = PiecewiseLinearPath([(0, 0), (3, 0), (3, 4)])
        assert poly.length == pytest.approx(7.0)

    def test_point_on_second_segment(self):
        poly = PiecewiseLinearPath([(0, 0), (3, 0), (3, 4)])
        np.testing.assert_allclose(poly.point_at(5.0), [3.0, 2.0])

    def test_point_clips(self):
        poly = PiecewiseLinearPath([(0, 0), (3, 0)])
        np.testing.assert_allclose(poly.point_at(10.0), [3.0, 0.0])

    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPath([(0.0, 0.0)])

    def test_collapses_duplicate_waypoints(self):
        """Zero-length segments are collapsed, not rejected — planners
        stitch tours that legitimately share junction vertices."""
        poly = PiecewiseLinearPath([(0, 0), (0, 0), (3, 0), (3, 0), (3, 4)])
        clean = PiecewiseLinearPath([(0, 0), (3, 0), (3, 4)])
        assert poly.length == pytest.approx(clean.length)
        assert poly.waypoints.shape == (3, 2)
        arcs = np.linspace(0.0, poly.length, 17)
        np.testing.assert_allclose(poly.point_at(arcs), clean.point_at(arcs))

    def test_collapses_run_of_duplicates(self):
        poly = PiecewiseLinearPath([(1, 1), (1, 1), (1, 1), (5, 1)])
        assert poly.waypoints.shape == (2, 2)
        assert poly.length == pytest.approx(4.0)

    def test_rejects_all_duplicate_waypoints(self):
        """A polyline with no distinct consecutive points has no arc
        length to parameterise — still an error."""
        with pytest.raises(ValueError):
            PiecewiseLinearPath([(2, 3), (2, 3), (2, 3)])

    def test_duplicate_collapse_keeps_lookup_finite(self):
        """Arc-length lookup near a collapsed vertex must not divide by
        a zero segment length."""
        poly = PiecewiseLinearPath([(0, 0), (10, 0), (10, 0), (10, 10)])
        pts = poly.point_at(np.array([0.0, 10.0, 15.0, 20.0]))
        assert np.all(np.isfinite(pts))
        np.testing.assert_allclose(pts[1], [10.0, 0.0])
        np.testing.assert_allclose(pts[2], [10.0, 5.0])

    def test_distance_from(self):
        poly = PiecewiseLinearPath([(0, 0), (10, 0)])
        assert poly.distance_from(np.array([5.0, 2.0]), 5.0) == pytest.approx(2.0)

    def test_coverage_window_straight_matches_linear(self):
        poly = PiecewiseLinearPath([(0.0, 0.0), (1000.0, 0.0)])
        line = LinearPathReference(1000.0)
        xy = np.array([[500.0, 30.0], [100.0, 0.0]])
        lo_p, hi_p = poly.coverage_window(xy, 100.0)
        lo_l, hi_l = line.coverage_window(xy, 100.0)
        np.testing.assert_array_equal(lo_p, lo_l)
        np.testing.assert_array_equal(hi_p, hi_l)

    def test_coverage_window_exact_across_a_corner(self):
        """The disc meets both legs of a right angle; the window runs
        from the chord on the first leg to the end of the second."""
        poly = PiecewiseLinearPath([(0, 0), (100, 0), (100, 100)])
        lo, hi = poly.coverage_window(np.array([[100.0, 50.0]]), 60.0)
        assert lo[0] == 100.0 - np.sqrt(60.0**2 - 50.0**2)
        assert hi[0] == 200.0

    def test_coverage_window_encloses_both_passes(self):
        """A U-turn passes the sensor twice: the window encloses both
        in-range arcs, and the arc between them is out of range."""
        poly = PiecewiseLinearPath([(0, 0), (100, 0), (100, 50), (0, 50)])
        xy = np.array([50.0, 25.0])
        lo, hi = poly.coverage_window(xy, 30.0)
        half = np.sqrt(30.0**2 - 25.0**2)
        assert lo[0] == 50.0 - half
        assert hi[0] == 150.0 + 50.0 + half
        assert poly.distance_from(xy, 125.0) > 30.0

    def test_coverage_window_unreachable(self):
        poly = PiecewiseLinearPath([(0, 0), (100, 0)])
        lo, hi = poly.coverage_window(np.array([[50.0, 500.0]]), 100.0)
        assert lo[0] > hi[0]

    def test_waypoints_copy(self):
        wps = [(0.0, 0.0), (1.0, 1.0)]
        poly = PiecewiseLinearPath(wps)
        out = poly.waypoints
        out[0, 0] = 99.0
        np.testing.assert_allclose(poly.waypoints[0], [0.0, 0.0])
