"""``Offline_MaxMatch`` — exact algorithm for the fixed-power special case.

Section VI: when every transmission uses one identical power ``P'``, a
sensor's energy constraint degenerates into a *cardinality* bound — it
can afford at most ``⌊P(v_i)/(P'·τ)⌋`` slots — and the DCMP becomes a
maximum-weight bipartite b-matching:

* left nodes: sensors, with capacity
  ``c_i = min(|A(v_i)|, ⌊P(v_i)/(P'·τ)⌋)`` (the paper additionally caps
  by ``Γ`` in the per-interval online variant);
* right nodes: time slots;
* edge ``(i, j)`` for ``j ∈ A(v_i)`` with weight ``r_{i,j}·τ``.

With global knowledge this "can deliver an exact solution in polynomial
time" (paper, end of Section VI) — our implementation is exact because
the b-matching solver (:mod:`repro.core.matching`) is.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.core.matching import max_weight_b_matching

__all__ = ["offline_maxmatch", "fixed_power_of", "build_matching_edges"]

#: Relative tolerance when checking the single-power precondition.
_POWER_RTOL = 1e-9


def fixed_power_of(instance: DataCollectionInstance) -> float:
    """The unique transmission power ``P'`` of a special-case instance.

    Scans every in-range (rate > 0) slot of every sensor; raises
    ``ValueError`` if more than one distinct power appears, since the
    matching algorithm is only exact for the single-power case.
    """
    power: Optional[float] = None
    for data in instance.sensors:
        if data.window is None:
            continue
        active = data.powers[data.rates > 0]
        for p in np.unique(active):
            if power is None:
                power = float(p)
            elif not np.isclose(p, power, rtol=_POWER_RTOL, atol=0.0):
                raise ValueError(
                    f"instance is not single-power: found {power} W and {p} W"
                )
    if power is None:
        raise ValueError("instance has no transmittable (rate > 0) slot at all")
    return power


def build_matching_edges(
    instance: DataCollectionInstance,
    fixed_power: Optional[float] = None,
) -> Tuple[List[Tuple[int, int, float]], np.ndarray]:
    """Edges and left capacities of the Section-VI bipartite graph.

    Returns ``(edges, capacities)`` where ``edges`` holds
    ``(sensor, slot, r_{i,j}·τ)`` for every positive-rate slot and
    ``capacities[i] = min(|A(v_i)|, ⌊P(v_i)/(P'·τ)⌋)``.
    """
    if fixed_power is None:
        fixed_power = fixed_power_of(instance)
    tau = instance.slot_duration
    per_slot_energy = fixed_power * tau
    flat = instance.flat_pairs()
    window_sizes = flat.offsets[1:] - flat.offsets[:-1]
    affordable = np.floor(
        instance.budgets_array() / per_slot_energy + 1e-12
    ).astype(np.int64)
    caps = np.minimum(window_sizes, affordable)
    np.maximum(caps, 0, out=caps)
    # One masked pass over the flat pairs, (sensor asc, slot asc) like
    # the scalar loop.
    keep = (flat.rates > 0) & (caps[flat.sensor] > 0)
    edges = list(
        zip(
            flat.sensor[keep].tolist(),
            flat.slot[keep].tolist(),
            (flat.rates[keep] * tau).tolist(),
        )
    )
    return edges, caps


def offline_maxmatch(
    instance: DataCollectionInstance,
    fixed_power: Optional[float] = None,
) -> Allocation:
    """Run ``Offline_MaxMatch`` on a single-power DCMP instance.

    Parameters
    ----------
    instance:
        The problem instance (must be single-power unless ``fixed_power``
        overrides the detection — overriding on a genuinely multi-power
        instance voids the exactness guarantee and may produce an
        energy-infeasible allocation, so we re-verify feasibility and
        raise if it fails).
    fixed_power:
        Skip auto-detection of ``P'``.

    Returns
    -------
    Allocation
        The optimal allocation for the special case.
    """
    if fixed_power is None:
        try:
            fixed_power = fixed_power_of(instance)
        except ValueError as err:
            if "no transmittable" in str(err):
                return Allocation(np.full(instance.num_slots, -1, dtype=np.int64))
            raise
    edges, caps = build_matching_edges(instance, fixed_power)
    result = max_weight_b_matching(edges, caps, instance.num_slots)
    allocation = Allocation(result.right_of(instance.num_slots))
    allocation.check_feasible(instance)
    return allocation
