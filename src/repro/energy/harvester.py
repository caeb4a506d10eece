"""Harvesting models: how ambient energy arrives over time.

The paper assumes harvested energy "is uncontrollable but predictable
based on the source type and harvesting history", and that replenishment
is much slower than consumption.  A :class:`HarvestModel` answers one
question — how much energy (J) arrives in an absolute time window — so
the simulator can integrate it between tours and within tours alike.

Implementations:

* :class:`SolarHarvester` — a panel of a given area under a
  :class:`~repro.energy.solar.SolarDayProfile` (the paper's setting:
  10 mm × 10 mm panel).
* :class:`ConstantHarvester` — constant-power source (wind/vibration
  approximations, and handy in tests).
* :class:`MarkovHarvester` — two-state (on/off) Markov-modulated source,
  a standard bursty-renewable abstraction.
* :class:`TraceHarvester` — piecewise-constant empirical trace playback,
  for users who *do* have real measurements.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.energy.solar import SolarDayProfile
from repro.utils.validation import check_nonnegative, check_positive

__all__ = [
    "HarvestModel",
    "ConstantHarvester",
    "SolarHarvester",
    "MarkovHarvester",
    "TraceHarvester",
]


@runtime_checkable
class HarvestModel(Protocol):
    """Protocol for energy-arrival models."""

    def power(self, t: float) -> float:
        """Instantaneous harvest power (W) at absolute time ``t`` (s)."""
        ...

    def energy(self, t_start: float, t_end: float) -> float:
        """Energy (J) harvested over ``[t_start, t_end]``."""
        ...


class ConstantHarvester:
    """A source delivering constant power forever."""

    def __init__(self, power_w: float):
        self._power = check_nonnegative(power_w, "power_w")

    def power(self, t: float) -> float:
        """Constant power, independent of ``t``."""
        return self._power

    def energy(self, t_start: float, t_end: float) -> float:
        """``power × duration``."""
        if t_end < t_start:
            raise ValueError(f"t_end {t_end} < t_start {t_start}")
        return self._power * (t_end - t_start)


class SolarHarvester:
    """A solar panel of ``panel_area_mm2`` under a day profile.

    The paper's sensors carry a 10 mm × 10 mm panel; the calibrated
    profiles in :mod:`repro.energy.solar` express power *density*, so
    this class just scales by area.
    """

    def __init__(self, profile: SolarDayProfile, panel_area_mm2: float = 100.0):
        self.profile = profile
        self.panel_area_mm2 = check_positive(panel_area_mm2, "panel_area_mm2")

    def power(self, t: float) -> float:
        """Panel power (W) at absolute time ``t``."""
        return float(self.profile.power_density(t)) * self.panel_area_mm2

    def energy(self, t_start: float, t_end: float) -> float:
        """Integrated panel energy (J) over the window.

        Like :meth:`SolarDayProfile.energy_density`, ``t_start`` may be
        an array of window starts sharing ``t_end`` (one energy each).
        """
        return self.profile.energy_density(t_start, t_end) * self.panel_area_mm2


class MarkovHarvester:
    """Two-state Markov-modulated constant source.

    The source alternates between ON (delivering ``on_power`` W) and OFF
    (0 W) with exponentially distributed sojourn times.  The state path
    is pre-sampled lazily but deterministically from ``seed``, so two
    harvesters with the same parameters produce identical energy streams.

    Parameters
    ----------
    on_power:
        Power while ON, watts.
    mean_on / mean_off:
        Mean sojourn durations, seconds.
    seed:
        Seed for the sojourn sampling.
    horizon:
        The state path is materialised out to this absolute time; queries
        beyond it extend the path on demand.
    """

    def __init__(
        self,
        on_power: float,
        mean_on: float = 1800.0,
        mean_off: float = 1800.0,
        seed: int = 0,
        horizon: float = 86_400.0,
    ):
        self._on_power = check_nonnegative(on_power, "on_power")
        self._mean_on = check_positive(mean_on, "mean_on")
        self._mean_off = check_positive(mean_off, "mean_off")
        self._rng = np.random.default_rng(seed)
        # switch_times[i] is the time of the i-th state flip; state starts ON.
        self._switch_times = [0.0]
        self._extend(horizon)

    def _extend(self, until: float) -> None:
        t = self._switch_times[-1]
        while t <= until:
            # switch_times[k] opens segment k; even segments are ON.  The
            # segment being closed here has index len(switch_times) - 1.
            closing_on = (len(self._switch_times) - 1) % 2 == 0
            mean = self._mean_on if closing_on else self._mean_off
            t += float(self._rng.exponential(mean))
            self._switch_times.append(t)

    def _state_at(self, t: float) -> bool:
        self._extend(t)
        idx = int(np.searchsorted(self._switch_times, t, side="right")) - 1
        return idx % 2 == 0  # even segment => ON

    def power(self, t: float) -> float:
        """``on_power`` while ON, 0 while OFF."""
        return self._on_power if self._state_at(t) else 0.0

    def energy(self, t_start: float, t_end: float) -> float:
        """Exact integral of the piecewise-constant power path."""
        if t_end < t_start:
            raise ValueError(f"t_end {t_end} < t_start {t_start}")
        self._extend(t_end)
        times = np.asarray(self._switch_times)
        # Build the breakpoints inside the window plus its endpoints.
        inside = times[(times > t_start) & (times < t_end)]
        points = np.concatenate([[t_start], inside, [t_end]])
        total = 0.0
        for a, b in zip(points[:-1], points[1:]):
            if self._state_at((a + b) / 2.0):
                total += self._on_power * (b - a)
        return total


class TraceHarvester:
    """Playback of an empirical power trace.

    The trace is piecewise constant: ``powers[k]`` holds on
    ``[times[k], times[k+1])``; before ``times[0]`` and after the last
    breakpoint the nearest value holds.  Energy queries integrate the
    step function exactly via prefix sums (O(log n) per query).
    """

    def __init__(self, times: Sequence[float], powers: Sequence[float]):
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(powers, dtype=np.float64)
        if t.ndim != 1 or p.ndim != 1 or t.size != p.size or t.size == 0:
            raise ValueError("times and powers must be equal-length 1-D, non-empty")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(p < 0):
            raise ValueError("powers must be non-negative")
        self._t = t
        self._p = p
        seg = np.diff(t) * p[:-1]
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])

    def power(self, t: float) -> float:
        """Trace power at time ``t`` (nearest-segment extension)."""
        idx = int(np.clip(np.searchsorted(self._t, t, side="right") - 1, 0, self._p.size - 1))
        return float(self._p[idx])

    def _integral_from_start(self, t: float) -> float:
        """∫ power from times[0] to t (t clamped below at times[0])."""
        if t <= self._t[0]:
            return (t - self._t[0]) * self._p[0]
        idx = int(np.searchsorted(self._t, t, side="right") - 1)
        if idx >= self._t.size - 1:
            return float(self._cum[-1]) + (t - self._t[-1]) * self._p[-1]
        return float(self._cum[idx]) + (t - self._t[idx]) * self._p[idx]

    def energy(self, t_start: float, t_end: float) -> float:
        """Exact energy over ``[t_start, t_end]``."""
        if t_end < t_start:
            raise ValueError(f"t_end {t_end} < t_start {t_start}")
        return self._integral_from_start(t_end) - self._integral_from_start(t_start)
