"""The :class:`SensorNetwork` container.

Holds the state of the sensors that line the pre-defined path (the path
itself belongs to the sink's :class:`~repro.network.path.SinkTrajectory`)
as arrays: their positions, their battery charges, the capacity ``B`` the
homogeneous nodes share and the one harvest model every node's panel
follows.  The container is the hand-off point between the *physical*
layers (geometry, radio, energy) and the *combinatorial* layer
(:mod:`repro.core.instance`).

The paper's energy model (Section II.B) is one recurrence over all nodes,

    P_{j+1}(v) = min(P_j(v) + Q_j(v) − O_j(v), B),

and :meth:`SensorNetwork.withdraw` (``O_j``) and
:meth:`SensorNetwork.deposit` (``Q_j``, clipped at ``B``) apply it to every
node in one array pass.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.energy.harvester import HarvestModel
from repro.utils.validation import check_positive

__all__ = ["SensorNetwork"]

#: Absolute tolerance for floating-point charge comparisons (joules).
_EPS = 1e-9


class _NodeReading(NamedTuple):
    """One node's battery at the time of a read (joules), as
    :attr:`SensorNetwork.sensors` reports it: ``node.battery.charge``."""

    charge: float
    capacity: float

    @property
    def battery(self) -> "_NodeReading":
        """The reading itself (it holds nothing but the battery)."""
        return self


def _energies(energy: Union[float, np.ndarray], n: int, name: str) -> np.ndarray:
    """``energy`` broadcast to ``(n,)`` joules (read-only); raises
    ``ValueError`` unless every entry is finite and ``>= 0``."""
    energy = np.broadcast_to(np.asarray(energy, dtype=np.float64), (n,))
    bad = ~(np.isfinite(energy) & (energy >= 0))
    if bad.any():
        node = int(np.argmax(bad))
        raise ValueError(
            f"{name} must be non-negative finite numbers, got {energy[node]!r} at node {node}"
        )
    return energy


class SensorNetwork:
    """A deployed energy-harvesting sensor network ``G = (V ∪ {s}, E)``.

    Parameters
    ----------
    positions:
        ``(n, 2)`` sensor coordinates in metres (e.g. from
        :func:`repro.network.deployment.uniform_deployment`).
    battery_capacity:
        Capacity ``B`` (J) shared by the homogeneous nodes; positive.
    initial_charges:
        Scalar or ``(n,)`` initial stored energy per node (J), each in
        ``[0, B]`` (up to 1e-9 J above ``B`` is clipped to ``B``).
    harvester:
        The harvest model every node's panel follows; ``None`` disables
        harvesting (plain battery nodes).
    """

    def __init__(
        self,
        positions: np.ndarray,
        battery_capacity: float,
        initial_charges: Union[float, np.ndarray],
        harvester: Optional[HarvestModel] = None,
    ):
        positions = np.array(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {positions.shape}")
        positions.flags.writeable = False
        capacity = check_positive(battery_capacity, "battery_capacity")
        charges = _energies(initial_charges, positions.shape[0], "initial_charges")
        over = charges > capacity + _EPS
        if over.any():
            bad = int(np.argmax(over))
            raise ValueError(
                f"initial_charge {charges[bad]} of node {bad} exceeds capacity {capacity}"
            )
        self._positions = positions
        self._capacity = capacity
        self._charges = np.minimum(charges, capacity)
        self.harvester = harvester

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_sensors(self) -> int:
        """Network size ``n``."""
        return self._positions.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """``(n, 2)`` read-only sensor coordinates."""
        return self._positions

    @property
    def capacity(self) -> float:
        """Battery capacity ``B`` (J) of every node."""
        return self._capacity

    def charges(self) -> np.ndarray:
        """``(n,)`` copy of the current battery charges (J)."""
        return self._charges.copy()

    @property
    def sensors(self) -> Tuple[_NodeReading, ...]:
        """Read-only snapshot of every node's battery, taken at each read:
        ``sensors[i].battery.charge`` and ``.capacity``.  Kept for the
        benchmark's readers; :meth:`charges` and :attr:`capacity` are the
        array forms."""
        return tuple(map(_NodeReading, self._charges.tolist(), repeat(self._capacity)))

    # ------------------------------------------------------------------
    # Energy update
    # ------------------------------------------------------------------
    def harvest(self, t_start: float, t_end: float) -> np.ndarray:
        """``(n,)`` energy (J) each node harvests over the absolute time
        window ``[t_start, t_end]`` seconds; zeros without a harvester.
        Every node carries the same panel, so the window is integrated
        once."""
        if self.harvester is None:
            return np.zeros(self.num_sensors)
        return np.full(self.num_sensors, self.harvester.energy(t_start, t_end))

    def withdraw(self, energy: Union[float, np.ndarray]) -> None:
        """Draw ``energy`` (J, scalar or ``(n,)``) from every node.

        Raises ``ValueError``, changing no charge, if an entry is negative
        or not finite, or exceeds its node's charge by more than 1e-9 J.
        """
        energy = _energies(energy, self.num_sensors, "energy")
        over = energy > self._charges + _EPS
        if over.any():
            bad = int(np.argmax(over))
            raise ValueError(
                f"node {bad}: withdraw {energy[bad]:.6f} J exceeds stored charge "
                f"{self._charges[bad]:.6f} J"
            )
        np.maximum(self._charges - energy, 0.0, out=self._charges)

    def deposit(self, energy: Union[float, np.ndarray]) -> np.ndarray:
        """Add harvested ``energy`` (J, scalar or ``(n,)``) to every node;
        returns the ``(n,)`` amounts actually stored.

        The surplus beyond capacity is spilled, mirroring ``min(..., B)``
        in the paper's recurrence.  Raises ``ValueError``, changing no
        charge, if an entry is negative or not finite.
        """
        energy = _energies(energy, self.num_sensors, "energy")
        stored = np.minimum(energy, self._capacity - self._charges)
        self._charges += stored
        return stored

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SensorNetwork(n={self.num_sensors})"
