"""Planner substrate: the plan datatype, errors, and the registry.

A planner turns ``(sensor positions, field geometry, transmission
range)`` into a :class:`SinkPlan` — one or more per-sink tours plus the
single stitched :class:`~repro.network.geometry.PiecewiseLinearPath` the
simulator drives.  Planners live *below* ``repro.sim``: they import only
geometry/obs, so the scenario layer can call them without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.network.geometry import PiecewiseLinearPath

__all__ = [
    "PlanningError",
    "SinkPlan",
    "get_planner",
    "polyline_length",
    "stitch_tours",
    "PLANNERS",
]


class PlanningError(ValueError):
    """No feasible plan exists under the requested constraints.

    Raised e.g. when the coverage-minimal plane-sweep tour already
    exceeds ``tour_length_budget``, or the multi-sink planner runs out of
    sinks before every tour fits its bound.
    """


@dataclass(frozen=True)
class SinkPlan:
    """The output of a planner: per-sink tours and the stitched path.

    Attributes
    ----------
    kind:
        The planner kind that produced this plan.
    path:
        The single arc-length-parameterised path the simulator drives —
        per-sink tours concatenated in sink order (connector segments
        between tours are part of the drive, mirroring one vehicle
        serving the sinks' routes back-to-back; with ``k`` true sinks
        they would drive their tours concurrently, which the per-tour
        ``tours`` geometry supports).
    tours:
        One ``(m_i, 2)`` waypoint array per sink.
    tour_lengths:
        Arc length of each sink's own tour (connectors excluded).
    assignment:
        ``(n,)`` int array mapping each sensor to its sink's tour index,
        or ``None`` when the planner does not partition sensors.
    meta:
        Planner-specific facts (line spacing, split count, …) — JSON
        scalars only.
    """

    kind: str
    path: PiecewiseLinearPath
    tours: Tuple[np.ndarray, ...]
    tour_lengths: Tuple[float, ...]
    assignment: Optional[np.ndarray] = None
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def num_sinks(self) -> int:
        """Number of per-sink tours in the plan."""
        return len(self.tours)

    @property
    def total_tour_length(self) -> float:
        """Sum of per-sink tour lengths in metres (connectors excluded)."""
        return float(sum(self.tour_lengths))

    def to_dict(self) -> dict:
        """JSON-ready plan document (rounded floats, deterministic order)."""
        return {
            "kind": self.kind,
            "num_sinks": self.num_sinks,
            "path_length_m": round(float(self.path.length), 6),
            "total_tour_length_m": round(self.total_tour_length, 6),
            "tour_lengths_m": [round(float(v), 6) for v in self.tour_lengths],
            "tours": [
                [[round(float(x), 6), round(float(y), 6)] for x, y in tour]
                for tour in self.tours
            ],
            "assignment": (
                None if self.assignment is None else [int(v) for v in self.assignment]
            ),
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
        }


def polyline_length(waypoints: np.ndarray) -> float:
    """Arc length of a waypoint sequence (0.0 for fewer than 2 points)."""
    pts = np.asarray(waypoints, dtype=np.float64)
    if pts.shape[0] < 2:
        return 0.0
    return float(np.hypot(*np.diff(pts, axis=0).T).sum())


def stitch_tours(tours: Sequence[np.ndarray]) -> PiecewiseLinearPath:
    """Concatenate per-sink tours into one drivable polyline.

    Straight connector segments join each tour's last waypoint to the
    next tour's first; duplicate junction vertices collapse inside
    :class:`PiecewiseLinearPath`.
    """
    if not tours:
        raise PlanningError("cannot stitch an empty tour list")
    return PiecewiseLinearPath(np.vstack(list(tours)))


def get_planner(kind: str):
    """Resolve a planner callable by kind (see :data:`PLANNERS`)."""
    try:
        return PLANNERS[kind]
    except KeyError:
        raise PlanningError(
            f"unknown planner kind {kind!r}; known: {', '.join(sorted(PLANNERS))}"
        ) from None


# Populated at the bottom of the package __init__ to avoid import cycles
# between base and the planner modules.
PLANNERS: Dict[str, object] = {}
