"""Baseline planner: the paper's fixed straight-line tour.

Wraps today's behavior — the sink drives ``(0, 0) → (W, 0)`` regardless
of where sensors sit — as a planner so designed tours are directly
comparable against the paper's fixed-path results under identical
scenario configs.
"""

from __future__ import annotations

import numpy as np

from repro.network.geometry import PiecewiseLinearPath
from repro.obs import inc, set_gauge

from .base import SinkPlan
from .config import PlannerConfig

__all__ = ["plan_fixed_line"]


def plan_fixed_line(
    config: PlannerConfig,
    positions: np.ndarray,
    field_width: float,
    field_half_height: float,
    transmission_range: float,
) -> SinkPlan:
    """Emit the paper's straight-line tour along the field's long axis.

    The path is exactly the two-waypoint
    :class:`~repro.network.geometry.PiecewiseLinearPath` a planner-less
    scenario builds, so solve results match the fixed-path pipeline
    bit-for-bit.
    """
    waypoints = np.array([[0.0, 0.0], [field_width, 0.0]])
    path = PiecewiseLinearPath(waypoints)
    inc("planner.plans")
    inc("planner.sweep.segments", 1)
    set_gauge("planner.tour_length_m", float(field_width))
    set_gauge("planner.sinks", 1)
    return SinkPlan(
        kind="fixed_line",
        path=path,
        tours=(waypoints,),
        tour_lengths=(float(field_width),),
        assignment=np.zeros(len(positions), dtype=np.int64),
        meta={},
    )
