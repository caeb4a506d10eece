"""Solar irradiance day-profiles calibrated to the paper's measurements.

The paper (Section VII.A) builds its harvesting profile "upon real solar
radiation measurements [Liu et al.], in which the total amount of energy
collected from a 37 mm × 37 mm solar panel over a 48-hour period is
655.15 mWh in a sunny day and 313.70 mWh in a partly cloudy day."

We do not have the raw trace, so we substitute the standard smooth model
of solar harvesting — a half-sine irradiance arc between sunrise and
sunset, zero at night — **calibrated so that the 48-hour energy total of
the reference panel matches the measurement exactly**.  The partly
cloudy profile additionally modulates the arc with a deterministic
pseudo-random cloud attenuation pattern (so it is time-varying, like
real cloud cover) while preserving its calibrated 48-h total.

The profile yields *areal power density* (W per mm² of panel);
:class:`repro.energy.harvester.SolarHarvester` multiplies by panel area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.units import SECONDS_PER_HOUR, mwh_to_joules
from repro.utils.validation import check_in_range, check_positive

__all__ = [
    "SolarDayProfile",
    "sunny_profile",
    "cloudy_profile",
    "SUNNY_48H_MWH",
    "CLOUDY_48H_MWH",
    "REFERENCE_PANEL_AREA_MM2",
]

#: 48-hour harvest totals measured on the reference panel (mWh).
SUNNY_48H_MWH: float = 655.15
CLOUDY_48H_MWH: float = 313.70

#: Area of the reference panel used in the measurements (37 mm × 37 mm).
REFERENCE_PANEL_AREA_MM2: float = 37.0 * 37.0

_DAY_SECONDS = 24.0 * SECONDS_PER_HOUR


@dataclass(frozen=True)
class SolarDayProfile:
    """A 24-hour periodic solar power-density profile.

    Attributes
    ----------
    peak_density:
        Peak areal power density at solar noon, W/mm².
    sunrise / sunset:
        Daylight window within each 24-h day, seconds from midnight.
    attenuation:
        Optional callable mapping absolute time (s) to a factor in
        ``[0, 1]`` modelling clouds; ``None`` means clear sky.
    """

    peak_density: float
    sunrise: float = 6.0 * SECONDS_PER_HOUR
    sunset: float = 18.0 * SECONDS_PER_HOUR
    attenuation: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        check_positive(self.peak_density, "peak_density")
        check_in_range(self.sunrise, "sunrise", 0.0, _DAY_SECONDS)
        check_in_range(self.sunset, "sunset", 0.0, _DAY_SECONDS)
        if self.sunset <= self.sunrise:
            raise ValueError("sunset must come after sunrise")

    @property
    def day_length(self) -> float:
        """Daylight duration in seconds."""
        return self.sunset - self.sunrise

    def power_density(self, t: Union[float, np.ndarray]) -> np.ndarray:
        """Areal power density (W/mm²) at absolute time(s) ``t`` seconds.

        ``t`` may span multiple days; the profile repeats every 24 h.
        """
        t_arr = np.asarray(t, dtype=np.float64)
        tod = np.mod(t_arr, _DAY_SECONDS)
        phase = (tod - self.sunrise) / self.day_length
        arc = np.where(
            (phase >= 0.0) & (phase <= 1.0),
            np.sin(np.pi * np.clip(phase, 0.0, 1.0)),
            0.0,
        )
        density = self.peak_density * arc
        if self.attenuation is not None:
            density = density * np.clip(self.attenuation(t_arr), 0.0, 1.0)
        return density

    def energy_density(
        self,
        t_start: Union[float, np.ndarray],
        t_end: float,
        resolution: float = 60.0,
    ) -> Union[float, np.ndarray]:
        """Energy density (J/mm²) harvested over ``[t_start, t_end]``.

        Integrated with the trapezoidal rule at ``resolution``-second
        sampling; the default (1 min) is far finer than any cloud or
        day/night feature, so the error is negligible for tour-scale
        windows.

        ``t_start`` may also be an array of window starts sharing the
        one end ``t_end``; the result is then an array with one density
        per window.  All windows are sampled on one flat grid — each
        window's samples are exactly those ``np.linspace(start, t_end,
        n)`` gives — and each window's trapezoid terms are summed by
        their own pairwise reduction, as ``np.trapezoid`` does, so every
        entry equals the scalar call on that window bit for bit.
        """
        starts = np.asarray(t_start, dtype=np.float64)
        scalar = starts.ndim == 0
        starts = starts.reshape(-1)
        if starts.size == 0:
            return np.zeros(0)
        latest = float(starts.max())
        if latest > t_end:
            raise ValueError(f"t_end {t_end} < t_start {latest}")
        spans = t_end - starts
        counts = np.maximum(np.ceil(spans / resolution).astype(np.int64), 1) + 1
        ends = np.cumsum(counts)
        offsets = ends - counts
        # Window i's grid is offsets[i]..ends[i]-1: local index k times
        # the window's step plus its start, the last sample pinned to
        # t_end, as np.linspace computes it.
        local = np.arange(ends[-1]) - np.repeat(offsets, counts)
        grid = local * np.repeat(spans / (counts - 1), counts) + np.repeat(starts, counts)
        grid[ends - 1] = t_end
        bounds = list(zip(offsets.tolist(), ends.tolist()))
        if self.attenuation is None:
            density = self.power_density(grid)
        else:
            # An attenuation callable may round differently with the
            # length of its input (the cloudy profile's harmonic sum is
            # a BLAS dot), so it sees one window at a time.
            density = np.concatenate([self.power_density(grid[a:b]) for a, b in bounds])
        # The trapezoid terms of consecutive samples; the terms that
        # straddle two windows are never summed.
        terms = np.diff(grid) * (density[1:] + density[:-1]) / 2.0
        totals = np.array([np.add.reduce(terms[a : b - 1]) for a, b in bounds])
        return float(totals[0]) if scalar else totals

    def daily_energy_density(self) -> float:
        """Clear-sky closed form: ∫ one day = peak · day_length · 2/π (J/mm²).

        With an attenuation callable the closed form no longer holds;
        use :meth:`energy_density` instead.
        """
        return self.peak_density * self.day_length * 2.0 / np.pi


def _calibrated_peak(total_mwh_48h: float, day_length: float) -> float:
    """Peak density such that two clear-sky days yield ``total_mwh_48h``
    on the reference panel."""
    total_j_per_mm2 = mwh_to_joules(total_mwh_48h) / REFERENCE_PANEL_AREA_MM2
    # 48 h = two identical days; each contributes peak * day_length * 2/pi.
    return total_j_per_mm2 * np.pi / (2.0 * 2.0 * day_length)


def sunny_profile() -> SolarDayProfile:
    """The calibrated sunny-day profile (655.15 mWh / 48 h on 37×37 mm)."""
    day_length = 12.0 * SECONDS_PER_HOUR
    return SolarDayProfile(peak_density=_calibrated_peak(SUNNY_48H_MWH, day_length))


def cloudy_profile(seed: int = 0, num_clouds: int = 24) -> SolarDayProfile:
    """The calibrated partly-cloudy profile (313.70 mWh / 48 h).

    Cloud cover is modelled as a smooth pseudo-random attenuation built
    from ``num_clouds`` random cosine harmonics (deterministic given
    ``seed``).  The peak density is then re-scaled so that the 48-h
    total matches the measurement despite the attenuation.
    """
    day_length = 12.0 * SECONDS_PER_HOUR
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(2.0, 30.0, size=num_clouds) * 2.0 * np.pi / _DAY_SECONDS
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_clouds)
    weights = rng.uniform(0.2, 1.0, size=num_clouds)
    weights /= weights.sum()

    def attenuation(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        # Sum of harmonics in [-1, 1] -> map to [0.15, 1.0]: clouds dim
        # but never fully block the panel.
        wave = np.tensordot(weights, np.cos(np.outer(freqs, t) + phases[:, None]), axes=1)
        return 0.575 + 0.425 * wave

    base = SolarDayProfile(
        peak_density=_calibrated_peak(CLOUDY_48H_MWH, day_length),
        attenuation=attenuation,
    )
    # Re-calibrate: the attenuation removed some energy; scale peak so the
    # 48-h numerical integral hits the measured total exactly.
    achieved = base.energy_density(0.0, 2.0 * _DAY_SECONDS)
    target = mwh_to_joules(CLOUDY_48H_MWH) / REFERENCE_PANEL_AREA_MM2
    return SolarDayProfile(
        peak_density=base.peak_density * target / achieved,
        attenuation=attenuation,
    )
