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
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.energy.solar import SolarDayProfile
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["HarvestModel", "ConstantHarvester", "SolarHarvester"]


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
