"""Result records for tours and multi-tour simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.allocation import Allocation
from repro.online.messages import MessageLog
from repro.units import bits_to_megabits
from repro.verify.certificate import Certificate

__all__ = ["TourResult", "SimulationResult"]


@dataclass
class TourResult:
    """Everything measured during one tour.

    Attributes
    ----------
    tour_index:
        0-based tour number.
    collected_bits:
        The objective value (network throughput) in bits.
    allocation:
        The slot allocation executed.
    energy_spent:
        ``(n,)`` joules transmitted per sensor.
    energy_harvested:
        ``(n,)`` joules harvested during the tour window (and any rest
        period after it).
    energy_spilled:
        ``(n,)`` joules lost to full batteries during this tour window.
    budgets:
        ``(n,)`` the budgets that were in force.
    messages:
        Protocol traffic (online algorithms only).
    wall_time:
        Scheduler run time in seconds (for the scalability benches).
    profile:
        Per-phase wall-clock breakdown of the tour in seconds
        (``instance_build_s`` / ``solve_s`` / ``verify_s`` /
        ``energy_update_s`` / ``total_s``, plus ``certify_s`` when
        certification ran); empty for hand-built results.  Each
        ``<stem>_s`` entry is the interval of the ``tour.<stem>``
        :class:`repro.obs.phase`, so it equals that timer observation
        and span duration exactly.
    certificate:
        Structured correctness evidence from
        :func:`repro.verify.certificate.certify` when the tour ran with
        ``certify=True``; ``None`` otherwise.
    """

    tour_index: int
    collected_bits: float
    allocation: Allocation
    energy_spent: np.ndarray
    energy_harvested: np.ndarray
    energy_spilled: np.ndarray
    budgets: np.ndarray
    messages: Optional[MessageLog] = None
    wall_time: float = 0.0
    profile: Dict[str, float] = field(default_factory=dict)
    certificate: Optional[Certificate] = None

    @property
    def collected_megabits(self) -> float:
        """Throughput in megabits."""
        return float(bits_to_megabits(self.collected_bits))

    @property
    def total_energy_spent(self) -> float:
        """Network-wide joules spent."""
        return float(self.energy_spent.sum())

    @property
    def total_energy_harvested(self) -> float:
        """Network-wide joules harvested."""
        return float(self.energy_harvested.sum())


@dataclass
class SimulationResult:
    """A sequence of tours plus aggregates."""

    algorithm: str
    tours: List[TourResult] = field(default_factory=list)

    @property
    def num_tours(self) -> int:
        """Number of completed tours."""
        return len(self.tours)

    def bits_per_tour(self) -> np.ndarray:
        """``(num_tours,)`` collected bits."""
        return np.array([t.collected_bits for t in self.tours])

    def total_bits(self) -> float:
        """Total bits over the simulation."""
        return float(self.bits_per_tour().sum())

    def mean_bits(self) -> float:
        """Mean bits per tour."""
        arr = self.bits_per_tour()
        return float(arr.mean()) if arr.size else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat aggregate dict for reports."""
        bits = self.bits_per_tour()
        return {
            "tours": float(self.num_tours),
            "total_megabits": float(bits_to_megabits(bits.sum())) if bits.size else 0.0,
            "mean_megabits": float(bits_to_megabits(bits.mean())) if bits.size else 0.0,
            "min_megabits": float(bits_to_megabits(bits.min())) if bits.size else 0.0,
            "max_megabits": float(bits_to_megabits(bits.max())) if bits.size else 0.0,
            "total_energy_spent": float(sum(t.total_energy_spent for t in self.tours)),
            "total_energy_harvested": float(
                sum(t.total_energy_harvested for t in self.tours)
            ),
        }
