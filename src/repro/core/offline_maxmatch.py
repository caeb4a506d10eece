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

from typing import Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.core.matching import max_weight_b_matching

__all__ = ["offline_maxmatch", "fixed_power_of", "build_matching_edges"]

#: Relative tolerance when checking the single-power precondition.
_POWER_RTOL = 1e-9


def fixed_power_of(instance: DataCollectionInstance) -> float:
    """The unique transmission power ``P'`` of a special-case instance.

    Reads the powers of every in-range (rate > 0) pair of
    ``instance.flat_pairs()``.  The reference power is the lowest
    in-range power of the first sensor that can transmit.  Raises
    ``ValueError`` when no slot is in range, or when another in-range
    power differs from the reference by more than ``_POWER_RTOL``
    (relative): the matching algorithm is only exact for the
    single-power case.
    """
    flat = instance.flat_pairs()
    active = flat.rates > 0
    if not active.any():
        raise ValueError("instance has no transmittable (rate > 0) slot at all")
    powers = flat.powers[active]
    sensors = flat.sensor[active]
    power = float(powers[sensors == sensors[0]].min())
    off = ~np.isclose(powers, power, rtol=_POWER_RTOL, atol=0.0)
    if off.any():
        # Name the lowest off-reference power of the first sensor that
        # has one, the offender a sensor-by-sensor scan meets first.
        p = powers[off & (sensors == sensors[off][0])].min()
        raise ValueError(f"instance is not single-power: found {power} W and {p} W")
    return power


def build_matching_edges(
    instance: DataCollectionInstance,
    fixed_power: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Edges and left capacities of the Section-VI bipartite graph.

    Returns ``(edges, capacities)``: ``edges`` is an ``(E, 3)`` float64
    array of ``(sensor, slot, r_{i,j}·τ)`` rows, one per positive-rate
    slot of a sensor with capacity, sensor-major with slots ascending;
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
    keep = (flat.rates > 0) & (caps[flat.sensor] > 0)
    edges = np.column_stack(
        (flat.sensor[keep], flat.slot[keep], flat.rates[keep] * tau)
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
        if not np.any(instance.flat_pairs().rates > 0):
            return Allocation(np.full(instance.num_slots, -1, dtype=np.int64))
        fixed_power = fixed_power_of(instance)
    edges, caps = build_matching_edges(instance, fixed_power)
    result = max_weight_b_matching(edges, caps, instance.num_slots)
    allocation = Allocation(result.right_of(instance.num_slots))
    allocation.check_feasible(instance)
    return allocation
