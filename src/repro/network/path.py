"""Sink trajectory: converting time slots to positions on the path.

The mobile sink travels the pre-defined path at constant speed ``r_s``
without stopping (Section II.A).  With a slot duration ``tau`` the tour
has ``T = floor(L / (r_s * tau))`` slots, indexed ``0 .. T-1`` internally
(the paper uses 1-based indices; the difference is cosmetic).

A design decision the paper leaves implicit: where *is* the sink "during
slot j"?  We adopt the slot **midpoint** convention — the representative
sink position for slot ``j`` is at arc length ``r_s * tau * (j + 1/2)``.
The midpoint is the least-biased single sample of the slot and makes
rate/energy lookups symmetric around each sensor.  The convention is a
constructor flag so sensitivity to it can be measured.
"""

from __future__ import annotations

from typing import Literal, Tuple, Union

import numpy as np

from repro.network.geometry import PiecewiseLinearPath
from repro.utils.intervals import SlotInterval
from repro.utils.validation import check_positive

__all__ = ["SinkTrajectory"]

SlotAnchor = Literal["midpoint", "start", "end"]

_ANCHOR_OFFSET = {"midpoint": 0.5, "start": 0.0, "end": 1.0}


class SinkTrajectory:
    """The mobile sink's schedule along a path.

    Parameters
    ----------
    path:
        Geometry of the pre-defined path.
    speed:
        Constant sink speed ``r_s`` in m/s.
    slot_duration:
        Slot length ``tau`` in seconds.
    anchor:
        Which instant within a slot represents the sink's position for
        rate/energy purposes (see module docstring).
    """

    def __init__(
        self,
        path: PiecewiseLinearPath,
        speed: float,
        slot_duration: float,
        anchor: SlotAnchor = "midpoint",
    ):
        self.path = path
        self.speed = check_positive(speed, "speed")
        self.slot_duration = check_positive(slot_duration, "slot_duration")
        if anchor not in _ANCHOR_OFFSET:
            raise ValueError(f"anchor must be one of {sorted(_ANCHOR_OFFSET)}, got {anchor!r}")
        self.anchor = anchor
        self._slot_length_m = self.speed * self.slot_duration
        self._num_slots = int(np.floor(path.length / self._slot_length_m))
        if self._num_slots < 1:
            raise ValueError(
                "tour has zero slots: path length "
                f"{path.length} m < one slot of {self._slot_length_m} m"
            )

    # ------------------------------------------------------------------
    # Basic quantities
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """``T = floor(L / (r_s * tau))`` — slots per tour."""
        return self._num_slots

    @property
    def tour_duration(self) -> float:
        """Duration of one tour in seconds (``T * tau``)."""
        return self._num_slots * self.slot_duration

    @property
    def slot_length_m(self) -> float:
        """Distance the sink covers in one slot, ``r_s * tau`` metres."""
        return self._slot_length_m

    def gamma(self, transmission_range: float) -> int:
        """Probe-interval length ``Γ = floor(R / (r_s · τ))`` in slots.

        The online framework (Section V.A) broadcasts one probe per
        ``Γ`` slots.  Always at least 1 so the framework makes progress
        even when ``R < r_s·τ``.
        """
        check_positive(transmission_range, "transmission_range")
        return max(1, int(np.floor(transmission_range / self._slot_length_m)))

    # ------------------------------------------------------------------
    # Time <-> space
    # ------------------------------------------------------------------
    def arc_at_slot(self, slot: Union[int, np.ndarray]) -> np.ndarray:
        """Arc length of the sink's anchor position for slot ``slot``."""
        slot_arr = np.asarray(slot, dtype=np.float64)
        return (slot_arr + _ANCHOR_OFFSET[self.anchor]) * self._slot_length_m

    def position_at_slot(self, slot: Union[int, np.ndarray]) -> np.ndarray:
        """Planar sink position(s) for the given slot index/indices."""
        return self.path.point_at(self.arc_at_slot(slot))

    def distances_to(self, xy: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Sensor–sink distances for points ``xy`` at slot indices ``slots``.

        Shapes follow :meth:`PiecewiseLinearPath.distance_from` broadcasting.
        """
        return self.path.distance_from(xy, self.arc_at_slot(slots))

    # ------------------------------------------------------------------
    # Availability windows A(v)
    # ------------------------------------------------------------------
    def availability(
        self, xy: np.ndarray, transmission_range: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Compute ``A(v)`` for each sensor position.

        ``A(v)`` is the consecutive slot window whose anchors fall inside
        the path's coverage window ``[lo, hi]`` for the sensor
        (:meth:`PiecewiseLinearPath.coverage_window`).  On the straight
        road that window is one chord, so every slot of ``A(v)`` has its
        anchor within ``transmission_range`` — exactly the paper's "set
        of consecutive time slots".  On a tour that leaves a sensor's
        range and comes back (a serpentine passing it twice) the window
        encloses both passes, and the slots in between are in ``A(v)``
        with the sink out of range (rate 0).

        Returns
        -------
        (starts, ends):
            ``int64`` arrays, one closed window ``[starts[i], ends[i]]``
            per sensor.  A sensor that can never reach the sink gets
            ``(0, -1)``, so ``start <= j <= end`` holds for no slot.
        """
        lo, hi = self.path.coverage_window(np.atleast_2d(xy), transmission_range)
        offset = _ANCHOR_OFFSET[self.anchor]
        # anchor arc of slot j is (j + offset) * slot_len; we need
        # lo <= (j + offset) * slot_len <= hi
        first = np.ceil(lo / self._slot_length_m - offset - 1e-12).astype(np.int64)
        last = np.floor(hi / self._slot_length_m - offset + 1e-12).astype(np.int64)
        np.maximum(first, 0, out=first)
        np.minimum(last, self._num_slots - 1, out=last)
        empty = (lo > hi) | (first > last)
        first[empty] = 0
        last[empty] = -1
        return first, last

    def probe_interval(self, index: int, transmission_range: float) -> SlotInterval:
        """Slot window ``[a_j, b_j]`` of the ``index``-th probe interval.

        Interval ``j`` (0-based) covers slots
        ``[j*Γ, min((j+1)*Γ, T) - 1]``.
        """
        gamma = self.gamma(transmission_range)
        start = index * gamma
        if start >= self._num_slots or index < 0:
            raise IndexError(f"probe interval {index} out of range")
        end = min(start + gamma, self._num_slots) - 1
        return SlotInterval(start, end)

    def num_probe_intervals(self, transmission_range: float) -> int:
        """Number of probe intervals ``K = ceil(T / Γ)`` in one tour."""
        gamma = self.gamma(transmission_range)
        return int(np.ceil(self._num_slots / gamma))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SinkTrajectory(L={self.path.length:.0f} m, r_s={self.speed} m/s, "
            f"tau={self.slot_duration} s, T={self._num_slots}, anchor={self.anchor!r})"
        )
