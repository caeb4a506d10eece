"""The sensor node entity.

A :class:`Sensor` is a *static description* of one node: identity,
position, and its energy subsystem (battery + harvester).  Dynamic
per-tour state (current charge, registered interval, assigned slots)
lives in the simulation layer so that a single network object can be
reused across algorithm runs without cross-contamination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.energy.battery import Battery
from repro.energy.harvester import HarvestModel
from repro.network.geometry import Point

__all__ = ["Sensor"]


@dataclass
class Sensor:
    """One stationary, energy-harvesting sensor node.

    Attributes
    ----------
    node_id:
        Stable integer identity (index into the network's arrays).
    position:
        Planar location in metres.
    battery:
        Energy storage (capacity + initial charge), in joules.
    harvester:
        Ambient-energy model used to replenish the battery between and
        during tours.  ``None`` means the node never recharges (a
        conventional battery-powered node — useful as a baseline).
    """

    node_id: int
    position: Point
    battery: Battery
    harvester: Optional[HarvestModel] = None

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id must be >= 0, got {self.node_id}")

    @property
    def xy(self) -> np.ndarray:
        """Position as a ``(2,)`` array."""
        return self.position.as_array()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Sensor(id={self.node_id}, x={self.position.x:.1f}, y={self.position.y:.1f}, "
            f"stored={self.battery.charge:.2f} J)"
        )
