"""Multi-rate radio model (paper Section II.C and VII.A).

The paper adopts a CC2420-style radio with a small number of discrete
output-power settings; the transmission rate achievable at a given
sensor–sink distance (and the power required to sustain it) comes from a
*rate table*.  The experimental section fixes a 4-level table:

========  ============  ===========
distance  rate          tx power
0–20 m    250 kbit/s    170 mW
20–50 m   19.2 kbit/s   220 mW
50–120 m  9.6 kbit/s    300 mW
120–200 m 4.8 kbit/s    330 mW
========  ============  ===========

Beyond 200 m no communication is possible.  :class:`FixedPowerTable`
is the special-case problem of Section VI, where every transmission
uses one power ``P'``.

All lookups are vectorised: ``rate_at`` / ``power_at`` map an array of
distances to arrays of rates / powers with a single ``searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.units import kbps_to_bps, mw_to_w
from repro.utils.validation import check_positive

__all__ = [
    "RateLevel",
    "RateTable",
    "FixedPowerTable",
    "CC2420_LIKE_TABLE",
]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class RateLevel:
    """One row of a rate table.

    Attributes
    ----------
    max_distance:
        Upper end (inclusive) of the distance band in metres.
    rate:
        Achievable data rate within the band, bits/s.
    power:
        Transmission power required, watts.
    """

    max_distance: float
    rate: float
    power: float

    def __post_init__(self) -> None:
        check_positive(self.max_distance, "max_distance")
        check_positive(self.rate, "rate")
        check_positive(self.power, "power")


class RateTable:
    """A stepwise distance → (rate, power) mapping.

    Levels must be sorted by increasing ``max_distance``; the band of
    level ``k`` is ``(max_distance[k-1], max_distance[k]]`` (first band
    starts at 0).  Distances beyond the last band are out of range: rate
    and power are both 0 there.
    """

    def __init__(self, levels: Sequence[RateLevel]):
        if not levels:
            raise ValueError("rate table needs at least one level")
        dists = [lv.max_distance for lv in levels]
        if any(b <= a for a, b in zip(dists, dists[1:])):
            raise ValueError("levels must have strictly increasing max_distance")
        self._levels = tuple(levels)
        self._bounds = np.asarray(dists, dtype=np.float64)
        self._rates = np.asarray([lv.rate for lv in levels], dtype=np.float64)
        self._powers = np.asarray([lv.power for lv in levels], dtype=np.float64)

    # ------------------------------------------------------------------
    @property
    def levels(self) -> Tuple[RateLevel, ...]:
        """The table rows, in distance order."""
        return self._levels

    @property
    def max_range(self) -> float:
        """Maximum communication distance ``R`` (metres)."""
        return float(self._bounds[-1])

    @property
    def num_levels(self) -> int:
        """Number of discrete (rate, power) pairs — the paper's ``k_i``."""
        return len(self._levels)

    @property
    def distinct_powers(self) -> np.ndarray:
        """Sorted unique transmission powers (watts)."""
        return np.unique(self._powers)

    # ------------------------------------------------------------------
    def _level_index(self, distance: ArrayLike) -> np.ndarray:
        """Index of the band containing each distance; ``len(levels)``
        marks out-of-range."""
        d = np.asarray(distance, dtype=np.float64)
        idx = np.searchsorted(self._bounds, d, side="left")
        return idx

    def rate_at(self, distance: ArrayLike) -> np.ndarray:
        """Data rate (bits/s) at the given distance(s); 0 out of range."""
        idx = self._level_index(distance)
        padded = np.concatenate([self._rates, [0.0]])
        return padded[np.minimum(idx, len(self._levels))]

    def power_at(self, distance: ArrayLike) -> np.ndarray:
        """Transmission power (W) at the given distance(s); 0 out of range."""
        idx = self._level_index(distance)
        padded = np.concatenate([self._powers, [0.0]])
        return padded[np.minimum(idx, len(self._levels))]

    def in_range(self, distance: ArrayLike) -> np.ndarray:
        """Boolean mask of distances within communication range."""
        return np.asarray(distance, dtype=np.float64) <= self.max_range

    def with_fixed_power(self, power: float) -> "FixedPowerTable":
        """Derive the Section-VI special case: same bands and rates, one
        transmission power ``P'`` everywhere."""
        return FixedPowerTable(
            [RateLevel(lv.max_distance, lv.rate, power) for lv in self._levels],
            fixed_power=power,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rows = ", ".join(
            f"<={lv.max_distance:g}m:{lv.rate:g}bps@{lv.power:g}W" for lv in self._levels
        )
        return f"RateTable({rows})"


class FixedPowerTable(RateTable):
    """A rate table whose every level shares one transmission power.

    This realises the special data collection maximization problem of
    Section VI ("the transmission power at each sensor is fixed and
    there is only one single transmission power ``P'``"), for which
    :mod:`repro.core.offline_maxmatch` is exact.
    """

    def __init__(self, levels: Sequence[RateLevel], fixed_power: float):
        check_positive(fixed_power, "fixed_power")
        for lv in levels:
            if lv.power != fixed_power:
                raise ValueError(
                    f"level at {lv.max_distance} m has power {lv.power} != fixed {fixed_power}"
                )
        super().__init__(levels)
        self.fixed_power = float(fixed_power)


#: The exact 4-pairwise setting from the paper's experiments
#: (Section VII.A), converted to SI units.
CC2420_LIKE_TABLE = RateTable(
    [
        RateLevel(max_distance=20.0, rate=kbps_to_bps(250.0), power=mw_to_w(170.0)),
        RateLevel(max_distance=50.0, rate=kbps_to_bps(19.2), power=mw_to_w(220.0)),
        RateLevel(max_distance=120.0, rate=kbps_to_bps(9.6), power=mw_to_w(300.0)),
        RateLevel(max_distance=200.0, rate=kbps_to_bps(4.8), power=mw_to_w(330.0)),
    ]
)
