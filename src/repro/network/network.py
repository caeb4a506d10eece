"""The :class:`SensorNetwork` container.

Holds the :class:`~repro.network.sensor.Sensor` nodes that line the
pre-defined path (the path itself belongs to the sink's
:class:`~repro.network.path.SinkTrajectory`).  The container is the
hand-off point between the *physical* layers (geometry, radio, energy)
and the *combinatorial* layer (:mod:`repro.core.instance`), and offers
bulk vectorised accessors (positions, charges, harvest) so instance
construction never loops in Python over per-sensor attribute lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.energy.battery import Battery
from repro.energy.harvester import HarvestModel
from repro.network.geometry import Point
from repro.network.sensor import Sensor

__all__ = ["SensorNetwork"]


class SensorNetwork:
    """A deployed energy-harvesting sensor network ``G = (V ∪ {s}, E)``.

    Parameters
    ----------
    sensors:
        The stationary sensor nodes ``V``.
    """

    def __init__(self, sensors: Sequence[Sensor]):
        ids = [s.node_id for s in sensors]
        if ids != list(range(len(sensors))):
            raise ValueError("sensor node_ids must be 0..n-1 in order")
        self._sensors: List[Sensor] = list(sensors)
        self._positions = (
            np.array([[s.position.x, s.position.y] for s in sensors], dtype=np.float64)
            if sensors
            else np.zeros((0, 2))
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        positions: np.ndarray,
        battery_capacity: float,
        initial_charges: Union[float, np.ndarray],
        harvester_factory: Optional[Callable[[int], HarvestModel]] = None,
    ) -> "SensorNetwork":
        """Assemble a network from bulk arrays.

        Parameters
        ----------
        positions:
            ``(n, 2)`` sensor coordinates (e.g. from
            :func:`repro.network.deployment.uniform_deployment`).
        battery_capacity:
            Capacity ``B`` (J) shared by the homogeneous nodes.
        initial_charges:
            Scalar or ``(n,)`` initial stored energy per node (J).
        harvester_factory:
            Optional ``node_id -> HarvestModel``; ``None`` disables
            harvesting (plain battery nodes).
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {positions.shape}")
        n = positions.shape[0]
        charges = np.broadcast_to(np.asarray(initial_charges, dtype=np.float64), (n,))
        sensors = [
            Sensor(
                node_id=i,
                position=Point(float(positions[i, 0]), float(positions[i, 1])),
                battery=Battery(battery_capacity, float(charges[i])),
                harvester=harvester_factory(i) if harvester_factory else None,
            )
            for i in range(n)
        ]
        return cls(sensors)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def sensors(self) -> List[Sensor]:
        """The node list (mutable state lives in each node's battery)."""
        return self._sensors

    @property
    def num_sensors(self) -> int:
        """Network size ``n``."""
        return len(self._sensors)

    @property
    def positions(self) -> np.ndarray:
        """``(n, 2)`` read-only view of sensor coordinates."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    def charges(self) -> np.ndarray:
        """``(n,)`` current battery charges (J)."""
        return np.array([s.battery.charge for s in self._sensors])

    def harvest(self, t_start: float, t_end: float) -> np.ndarray:
        """``(n,)`` energy (J) each node harvests over the absolute time
        window ``[t_start, t_end]`` seconds; 0 for a node without a
        harvester.

        Nodes may share one harvest model (a scenario's nodes share one
        panel under one profile), so ``energy`` is called once per
        distinct model object and its value given to every node that
        holds it.
        """
        by_model: Dict[int, float] = {}
        gains = []
        for sensor in self._sensors:
            model = sensor.harvester
            if model is None:
                gains.append(0.0)
                continue
            if id(model) not in by_model:
                by_model[id(model)] = model.energy(t_start, t_end)
            gains.append(by_model[id(model)])
        return np.array(gains, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._sensors)

    def __iter__(self) -> Iterator[Sensor]:
        return iter(self._sensors)

    def __getitem__(self, node_id: int) -> Sensor:
        return self._sensors[node_id]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SensorNetwork(n={self.num_sensors})"
