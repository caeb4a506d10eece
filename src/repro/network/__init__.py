"""Network substrate: geometry, sink trajectory, radio model, deployment.

This subpackage builds everything the paper's system model (Section II.A)
needs: the pre-defined path, the mobile sink's position per time slot,
sensor deployments along a highway, and the multi-rate radio table
(Section II.C).
"""

from repro.network.geometry import PiecewiseLinearPath
from repro.network.path import SinkTrajectory
from repro.network.radio import (
    CC2420_LIKE_TABLE,
    FixedPowerTable,
    RateLevel,
    RateTable,
)
from repro.network.deployment import clustered_deployment, uniform_deployment
from repro.network.network import SensorNetwork

__all__ = [
    "PiecewiseLinearPath",
    "SinkTrajectory",
    "RateLevel",
    "RateTable",
    "FixedPowerTable",
    "CC2420_LIKE_TABLE",
    "uniform_deployment",
    "clustered_deployment",
    "SensorNetwork",
]
