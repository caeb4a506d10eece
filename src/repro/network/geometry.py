"""Planar geometry for the pre-defined sink path.

The paper assumes the pre-defined path is a straight line "which can be
easily extended to real scenarios".  One class covers both: a
:class:`PiecewiseLinearPath` through a sequence of waypoints.  The
paper's straight road is the two-waypoint path ``[(0, 0), (L, 0)]``;
planned tours and real roads are longer polylines.

A path is parameterised by **arc length** ``s ∈ [0, length]``.  The sink's
travel converts time to arc length; geometry converts arc length to a
planar point.  All bulk operations are vectorised over NumPy arrays.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["PiecewiseLinearPath"]


class PiecewiseLinearPath:
    """A polyline path through a sequence of waypoints.

    Each segment's start point, unit direction, length and starting arc
    are computed once, as 1-D arrays, so a bulk lookup is a
    ``searchsorted`` plus one ``np.take`` per quantity.  On an x-axis
    segment the unit direction is exactly ``(1.0, 0.0)``, so the straight
    road's points and coverage chords carry no rounding.
    """

    def __init__(self, waypoints: Sequence[Tuple[float, float]]):
        pts = np.asarray(waypoints, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("waypoints must be an (m>=2, 2) sequence of points")
        # Collapse zero-length segments (consecutive duplicate vertices):
        # they have no direction, and planners legitimately emit them
        # (e.g. a degenerate sweep column or a tour stitched from tours
        # that share an endpoint).
        keep = np.concatenate(
            [[True], np.hypot(*(np.diff(pts, axis=0).T)) > 0.0]
        )
        pts = pts[keep]
        if pts.shape[0] < 2:
            raise ValueError(
                "waypoints must contain at least 2 distinct consecutive points"
            )
        seg = np.diff(pts, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        self._pts = pts
        self._x0 = pts[:-1, 0].copy()
        self._y0 = pts[:-1, 1].copy()
        self._ux = seg[:, 0] / seg_len
        self._uy = seg[:, 1] / seg_len
        self._seg_len = seg_len
        self._cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        # Interior vertices' arcs: the number at or below an arc is the
        # index of its segment (0 throughout a one-segment path).
        self._breaks = self._cum[1:-1]

    @property
    def length(self) -> float:
        """Total arc length of the polyline."""
        return float(self._cum[-1])

    @property
    def waypoints(self) -> np.ndarray:
        """Copy of the waypoint array, shape ``(m, 2)``."""
        return self._pts.copy()

    def point_at(self, arc: Union[float, np.ndarray]) -> np.ndarray:
        """Planar point(s) at arc length ``arc``.

        ``arc`` is clipped to ``[0, length]`` (the sink never leaves the
        path).  Returns shape ``(2,)`` for scalar input, ``arc.shape +
        (2,)`` otherwise.
        """
        arc = np.clip(np.asarray(arc, dtype=np.float64), 0.0, self.length)
        seg = np.searchsorted(self._breaks, arc, side="right")
        along = arc - np.take(self._cum, seg)
        out = np.empty(arc.shape + (2,), dtype=np.float64)
        out[..., 0] = np.take(self._x0, seg) + np.take(self._ux, seg) * along
        out[..., 1] = np.take(self._y0, seg) + np.take(self._uy, seg) * along
        return out

    def distance_from(self, xy: np.ndarray, arc: Union[float, np.ndarray]) -> np.ndarray:
        """Distance between point(s) ``xy`` and the path point(s) at ``arc``.

        ``xy`` has shape ``(2,)`` or ``(n, 2)``; ``arc`` is scalar or
        ``(k,)``.  ``(n, 2)`` against ``(k,)`` yields ``(n, k)``.
        """
        xy = np.asarray(xy, dtype=np.float64)
        pts = self.point_at(arc)
        if xy.ndim == 1 and pts.ndim == 1:
            return np.hypot(xy[0] - pts[0], xy[1] - pts[1])
        if xy.ndim == 1:
            return np.hypot(xy[0] - pts[..., 0], xy[1] - pts[..., 1])
        if pts.ndim == 1:
            return np.hypot(xy[:, 0] - pts[0], xy[:, 1] - pts[1])
        return np.hypot(
            xy[:, None, 0] - pts[None, :, 0],
            xy[:, None, 1] - pts[None, :, 1],
        )

    def coverage_window(self, xy: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        """Arc-length window in which the path comes within ``radius`` of ``xy``.

        Each point's disc is intersected with every segment exactly: with
        ``d = p − start``, ``along = d·unit`` and ``perp = unit × d``, the
        segment is in range over ``along ± √(radius² − perp²)`` clipped to
        the segment.  The window is the enclosing span ``[min lo, max hi]``
        of those arcs.  On the straight road that is the paper's chord
        ``x ± √(R² − y²)``; on a tour that leaves range and comes back
        (a serpentine passing a sensor twice) the arcs in between lie
        inside the window but out of range.

        Parameters
        ----------
        xy:
            ``(2,)`` or ``(n, 2)`` sensor coordinates.
        radius:
            Transmission range ``R`` in metres.

        Returns
        -------
        (lo, hi):
            Arrays of arc lengths.  Where no segment comes within
            ``radius``, ``lo = 1.0 > hi = 0.0`` (empty window).
        """
        check_positive(radius, "radius")
        xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
        dx = xy[:, 0, None] - self._x0
        dy = xy[:, 1, None] - self._y0
        along = dx * self._ux + dy * self._uy
        perp = self._ux * dy - self._uy * dx
        half = np.sqrt(np.maximum(radius**2 - perp**2, 0.0))
        meets = (
            (np.abs(perp) <= radius)
            & (along + half >= 0.0)
            & (along - half <= self._seg_len)
        )
        start = self._cum[:-1]
        lo = np.where(meets, np.clip(along - half, 0.0, self._seg_len) + start, np.inf)
        hi = np.where(meets, np.clip(along + half, 0.0, self._seg_len) + start, -np.inf)
        reachable = meets.any(axis=1)
        return (
            np.where(reachable, lo.min(axis=1), 1.0),
            np.where(reachable, hi.max(axis=1), 0.0),
        )
