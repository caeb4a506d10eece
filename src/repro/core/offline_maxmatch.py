"""``Offline_MaxMatch`` — exact algorithm for the fixed-power special case.

Section VI: when every transmission uses one identical power ``P'``, a
sensor's energy constraint degenerates into a *cardinality* bound, and
the DCMP becomes a maximum-weight bipartite b-matching of sensors, with
capacities ``c_i = min(|A(v_i)|, ⌊P(v_i)/(P'·τ)⌋)``, to the slots of
their windows, with weights ``r_{i,j}·τ`` (:func:`build_matching_edges`).
With global knowledge this "can deliver an exact solution in polynomial
time" (paper, end of Section VI).  It is solved over the runs of
identical slots of :func:`repro.core.lp.slot_run_model` with the sensor
row ``Σ_G z_{i,G} ≤ c_i``, the incidence matrix of a bipartite
run–sensor graph, so HiGHS's vertex optimum is integral.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.core.lp import slot_run_model
from repro.obs import get_registry

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


def _capacities(instance: DataCollectionInstance, fixed_power: float) -> np.ndarray:
    """``c_i = min(|A(v_i)|, ⌊P(v_i)/(P'·τ)⌋)`` per sensor, at least 0."""
    per_slot_energy = fixed_power * instance.slot_duration
    affordable = np.floor(instance.budgets_array() / per_slot_energy + 1e-12).astype(np.int64)
    return np.maximum(np.minimum(np.diff(instance.flat_pairs().offsets), affordable), 0)


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
    caps = _capacities(instance, fixed_power)
    flat = instance.flat_pairs()
    keep = (flat.rates > 0) & (caps[flat.sensor] > 0)
    edges = np.column_stack((flat.sensor[keep], flat.slot[keep], flat.profits[keep]))
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
    model = slot_run_model(instance)
    num_vars = model.profits.size
    if num_vars == 0:
        return Allocation.empty(instance.num_slots)
    if fixed_power is None:
        fixed_power = fixed_power_of(instance)
    registry = get_registry()
    registry.inc("matching.calls")
    registry.inc("matching.edges", float(num_vars))
    res = model.linprog(np.ones(num_vars), _capacities(instance, fixed_power), "matching.lp")
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"b-matching LP failed: {res.message}")
    # A totally unimodular polytope has integral vertices; verify anyway.
    frac = np.abs(res.x - np.round(res.x)).max()
    if frac > 1e-6:  # pragma: no cover - defensive
        raise RuntimeError(f"LP returned a fractional vertex (max frac {frac:.2e})")
    allocation = model.allocation(res.x)
    allocation.check_feasible(instance)
    return allocation
