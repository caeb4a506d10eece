"""Sink-path design: choose the trajectory before the solvers run.

The paper treats the sink tour as a given input.  This package *designs*
it: 2D-plane deployments over a rectangular field, a plane-sweep
serpentine planner (after Dash, "Plane Sweep Algorithms for Data
Collection in WSN using Mobile Sink"), a tour-length-bounded multi-sink
partition-and-schedule planner (after Almi'ani & Alqaralleh, "Mobile
Elements Scheduling for Periodic Sensor Applications"), and a fixed-line
baseline wrapping the paper's straight tour.  See ``docs/PLANNING.md``.

Entry point: :func:`plan_scenario` takes a
:class:`~repro.planning.config.PlannerConfig` plus field geometry and
returns a :class:`~repro.planning.base.SinkPlan`; the scenario layer
feeds the plan's path straight into
:class:`~repro.network.path.SinkTrajectory`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs import phase

from .base import PLANNERS, PlanningError, SinkPlan, get_planner
from .config import DEPLOYMENT_KINDS, PLANNER_KINDS, PlannerConfig
from .fixed_line import plan_fixed_line
from .multisink import deterministic_kmeans, plan_multi_sink
from .render import plan_document, render_field_map
from .sweep import plan_plane_sweep

__all__ = [
    "PlannerConfig",
    "PlanningError",
    "SinkPlan",
    "plan_scenario",
    "plan_fixed_line",
    "plan_plane_sweep",
    "plan_multi_sink",
    "deterministic_kmeans",
    "render_field_map",
    "plan_document",
    "get_planner",
    "PLANNERS",
    "PLANNER_KINDS",
    "DEPLOYMENT_KINDS",
]

PLANNERS.update(
    {
        "fixed_line": plan_fixed_line,
        "plane_sweep": plan_plane_sweep,
        "multi_sink": plan_multi_sink,
    }
)


def plan_scenario(
    config: PlannerConfig,
    positions: np.ndarray,
    field_width: float,
    field_half_height: float,
    transmission_range: float,
) -> SinkPlan:
    """Run the configured planner over one deployed field.

    Dispatches on ``config.kind`` and times the call under the
    ``planner.plan`` timer (and, under an active
    :class:`~repro.obs.profiling.DeepProfiler`, the ``plan``
    attribution phase); every planner also bumps ``planner.plans`` and
    the ``planner.*`` work counters it owns.
    """
    planner = get_planner(config.kind)
    with phase("planner.plan", deep=True):
        return planner(
            config, positions, field_width, field_half_height, transmission_range
        )
