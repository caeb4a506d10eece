"""Sensor deployment generators.

The paper's experiments deploy 100–600 homogeneous sensors "randomly
along a pre-defined path" of 10,000 m with "the maximum distance between
the location of any sensor and the path" being 180 m.  We implement that
uniform deployment plus a clustered alternative used in WSN evaluations,
where sensors concentrate around hot spots (models intersections /
interchanges on a highway).

Each generator returns an ``(n, 2)`` position array, the first argument
of :class:`repro.network.network.SensorNetwork`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["uniform_deployment", "clustered_deployment"]


def uniform_deployment(
    num_sensors: int,
    path_length: float,
    max_offset: float,
    seed: SeedLike = None,
) -> np.ndarray:
    """The paper's deployment: i.i.d. uniform positions.

    ``x ~ U(0, path_length)``, ``y ~ U(-max_offset, +max_offset)``.

    Parameters
    ----------
    num_sensors:
        Number of sensors ``n``.
    path_length:
        Highway length ``L`` in metres.
    max_offset:
        Maximum lateral distance from the path, metres (paper: 180).
    seed:
        Any :func:`repro.utils.rng.as_generator` input.

    Returns
    -------
    numpy.ndarray
        ``(num_sensors, 2)`` float positions.
    """
    if num_sensors < 0:
        raise ValueError(f"num_sensors must be >= 0, got {num_sensors}")
    check_positive(path_length, "path_length")
    check_nonnegative(max_offset, "max_offset")
    rng = as_generator(seed)
    x = rng.uniform(0.0, path_length, size=num_sensors)
    y = rng.uniform(-max_offset, max_offset, size=num_sensors)
    return np.column_stack([x, y])


def clustered_deployment(
    num_sensors: int,
    path_length: float,
    max_offset: float,
    num_clusters: int = 5,
    cluster_std: float = 150.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Sensors gathered around random hot spots along the highway.

    Cluster centres are uniform on the path; each sensor picks a centre
    uniformly and lands at a Gaussian longitudinal offset (std
    ``cluster_std`` m) and a uniform lateral offset.  Positions are
    clipped to the highway extent.
    """
    if num_sensors < 0:
        raise ValueError(f"num_sensors must be >= 0, got {num_sensors}")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    check_positive(path_length, "path_length")
    check_nonnegative(max_offset, "max_offset")
    check_positive(cluster_std, "cluster_std")
    rng = as_generator(seed)
    centres = rng.uniform(0.0, path_length, size=num_clusters)
    choice = rng.integers(0, num_clusters, size=num_sensors)
    x = np.clip(centres[choice] + rng.normal(0.0, cluster_std, size=num_sensors), 0.0, path_length)
    y = rng.uniform(-max_offset, max_offset, size=num_sensors)
    return np.column_stack([x, y])
