#!/usr/bin/env python
"""Beyond the straight line: a curved interchange with clustered sensors.

The paper assumes a straight path "which can be easily extended to real
scenarios" — this example *is* that extension, built from the public
API's lower-level pieces: a :class:`PiecewiseLinearPath` following an
S-shaped road, a clustered deployment around two interchanges, explicit
network assembly from arrays, and a direct
:meth:`DataCollectionInstance.from_network` call.

Run:  python examples/curved_road.py
"""

from __future__ import annotations

import numpy as np

from repro import offline_appro, online_appro
from repro.core.instance import DataCollectionInstance
from repro.energy.harvester import SolarHarvester
from repro.energy.solar import sunny_profile
from repro.network.deployment import clustered_deployment
from repro.network.geometry import PiecewiseLinearPath
from repro.network.network import SensorNetwork
from repro.network.path import SinkTrajectory
from repro.network.radio import CC2420_LIKE_TABLE


def main() -> None:
    rng = np.random.default_rng(5)

    # An S-curved road through two interchanges.
    waypoints = [
        (0.0, 0.0),
        (2000.0, 0.0),
        (3500.0, 800.0),
        (5000.0, 800.0),
        (6500.0, 0.0),
        (9000.0, 0.0),
    ]
    path = PiecewiseLinearPath(waypoints)
    print(f"road length: {path.length:.0f} m over {len(waypoints)} waypoints")

    # Sensors cluster around the interchanges (traffic cameras, loops).
    positions = clustered_deployment(
        num_sensors=250,
        path_length=path.length,
        max_offset=150.0,
        num_clusters=2,
        cluster_std=700.0,
        seed=rng,
    )
    # clustered_deployment places points in path-parameter space for the
    # straight-line case; map the longitudinal coordinate onto the curve.
    arc = positions[:, 0]
    on_road = path.point_at(arc)
    normals = rng.uniform(-150.0, 150.0, size=len(arc))
    xy = on_road + np.column_stack([np.zeros_like(normals), normals])

    # Every node has the same 10 mm x 10 mm panel under the same sky, so
    # the network holds one harvester: SensorNetwork.harvest integrates a
    # window once for all of them.
    network = SensorNetwork(
        xy,
        battery_capacity=10_000.0,
        initial_charges=rng.uniform(0.5, 8.0, size=len(arc)),
        harvester=SolarHarvester(sunny_profile(), 100.0),
    )
    trajectory = SinkTrajectory(path, speed=8.0, slot_duration=1.0)
    instance = DataCollectionInstance.from_network(
        network, trajectory, CC2420_LIKE_TABLE, network.charges()
    )
    starts, ends = instance.window_bounds()
    reachable = int(np.count_nonzero(starts <= ends))
    print(f"instance: {instance.num_sensors} sensors ({reachable} reachable), "
          f"T={instance.num_slots} slots")

    offline = offline_appro(instance)
    gamma = trajectory.gamma(CC2420_LIKE_TABLE.max_range)
    online = online_appro(instance, gamma)
    print(f"Offline_Appro: {offline.collected_bits(instance) / 1e6:.2f} Mb")
    print(
        f"Online_Appro : {online.collected_bits / 1e6:.2f} Mb "
        f"({online.messages.total_messages} protocol messages, "
        f"{len(online.intervals)} probe intervals)"
    )


if __name__ == "__main__":
    main()
