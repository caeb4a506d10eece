"""``Offline_Appro`` — the paper's offline approximation algorithm.

Algorithm 1 (Section IV): with global knowledge of the network and every
sensor's profile, treat the DCMP as a GAP (bins = sensors with energy
budgets; items = time slots with per-sensor cost ``P_{i,j}·τ`` and
profit ``r_{i,j}·τ``) and run the Cohen–Katzir–Raz [3] local-ratio pass,
processing sensors sorted by start slot then end slot.

The approximation ratio is ``1/(1+β)`` for a ``β``-approximate knapsack
solver: ``1/2`` with an exact solver (the default — the 4-level radio
table makes exact solving cheap), ``1/(2+ε)`` with the FPTAS, matching
Theorem 2.

The pass runs on the instance's own flat pairs through a *residual
band*.  Row ``r`` is the ``r``-th sensor of ``sensor_order()``; slot
``t`` of its window sits in column ``t mod P``, with ``P = min(T,
2·L)`` for the longest window ``L``, and every other cell holds
``-inf``.  Round ``r`` packs row ``r`` with the knapsack, then applies
the decomposition of eqs. (5)–(6): every later sensor that can use a
picked slot ``t`` loses row ``r``'s residual profit for it.  Rows are
sorted by window start, so those sensors sit in the block of rows after
``r`` that start at or before the last picked slot.  Every window in
that block, and row ``r``'s own, lies within the ``2L − 1`` slots from
row ``r``'s start, while two slots in one column differ by a multiple
of ``P ≥ 2L``: a block row holds ``t`` in column ``t mod P`` if its
window has ``t``, and ``-inf`` there if not (``-inf`` minus a residual
stays ``-inf``).  So the whole update is one subtraction over the block
and the picked columns; with ``P = T`` nothing shares a column at all.
The backward pass ``S_l = S̄_l \\ ∪_{later} S`` gives each slot to the
last row that picked it, which the forward pass records by overwriting.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.core.allocation import UNASSIGNED, Allocation
from repro.core.instance import DataCollectionInstance
from repro.core.knapsack import list_solver
from repro.obs import get_registry, phase

__all__ = ["offline_appro"]


def offline_appro(
    instance: DataCollectionInstance,
    knapsack_method: str = "few_weights",
    epsilon: float = 0.1,
) -> Allocation:
    """Run Algorithm 1 on a DCMP instance.

    Parameters
    ----------
    instance:
        The problem instance.
    knapsack_method:
        Which single-bin solver to use (see
        :func:`repro.core.knapsack.solve_knapsack`): ``"few_weights"``
        (exact — ratio 1/2), ``"fptas"`` (ratio ``1/(2+ε)``, the paper's
        stated guarantee) or ``"greedy"`` (ratio 1/3, fastest).
    epsilon:
        FPTAS accuracy knob (ignored by other methods).

    Returns
    -------
    Allocation
        A feasible slot allocation.

    Notes
    -----
    Emits the ``offline_appro`` phase and its children
    ``offline_appro.reduce`` (the residual band's build) and
    ``offline_appro.local_ratio`` (the rounds and the backward pass) to
    :mod:`repro.obs`.  The counters ``knapsack.calls``,
    ``knapsack.items`` and ``knapsack.method[<method>]`` (one knapsack
    per sensor, unreachable ones included), ``gap.local_ratio_rounds``
    (one per sensor) and ``gap.residual_updates`` (one per picked slot of
    positive residual and other sensor whose window holds it, the
    sensors already packed included) are recorded once per pass.
    """
    solve = list_solver(knapsack_method, epsilon)
    flat = instance.flat_pairs()
    if np.any(flat.costs < 0.0):
        raise ValueError("weights must be non-negative")
    n = instance.num_sensors
    with phase("offline_appro", n=n, method=knapsack_method):
        with phase("offline_appro.reduce"):
            order = instance.sensor_order()
            sizes = np.diff(flat.offsets)
            period = min(instance.num_slots, 2 * int(sizes.max())) if flat.slot.size else 1
            rows = np.empty(n, dtype=np.int64)
            rows[order] = np.arange(n, dtype=np.int64)
            band = np.full((n, period), -np.inf)
            band[rows[flat.sensor], flat.slot % period] = flat.profits
        with phase("offline_appro.local_ratio"):
            owner, updates = _local_ratio(instance, order, band, solve)
        registry = get_registry()
        if n:
            registry.inc("knapsack.calls", float(n))
            registry.inc("knapsack.items", float(flat.slot.size))
            registry.inc(f"knapsack.method[{knapsack_method}]", float(n))
        registry.inc("gap.local_ratio_rounds", float(n))
        registry.inc("gap.residual_updates", float(updates))
        return Allocation(np.array(owner, dtype=np.int64))


def _local_ratio(instance, order, band, solve):
    """The rounds over the residual band, in row order; returns the slot
    owners (a list, ``UNASSIGNED`` where no row picked the slot) and the
    ``gap.residual_updates`` count."""
    flat = instance.flat_pairs()
    period = band.shape[1]
    starts, ends = (bound.tolist() for bound in instance.window_bounds())
    offsets = flat.offsets.tolist()
    costs = flat.costs.tolist()
    budgets = instance.budgets_array().tolist()
    # How many sensors' windows hold each slot.  A picked slot of positive
    # residual counts one update per other holder, packed sensors too:
    # the entries eqs. (5)-(6) decompose, whether or not a later round
    # can still read them.
    holders = np.bincount(flat.slot, minlength=instance.num_slots).tolist()
    # Unreachable sensors sort last and pick nothing.
    reachable = [i for i in order if starts[i] <= ends[i]]
    row_starts = [starts[i] for i in reachable]
    owner = [UNASSIGNED] * instance.num_slots
    updates = 0
    for r, i in enumerate(reachable):
        start, lo, hi = starts[i], offsets[i], offsets[i + 1]
        first = start % period
        last = first + hi - lo
        if last <= period:
            residual = band[r, first:last].tolist()
        else:  # the window wraps past the period
            residual = band[r, first:].tolist() + band[r, : last - period].tolist()
        picked = solve(residual, costs[lo:hi], budgets[i])
        if not picked:
            continue
        columns = []
        deltas = []
        for k in picked:
            slot = start + k
            owner[slot] = i
            if residual[k] > 0.0:
                columns.append(slot % period)
                deltas.append(residual[k])
                updates += holders[slot] - 1
        below = bisect_right(row_starts, start + picked[-1])
        if deltas and below > r + 1:
            band[r + 1 : below, columns] -= deltas
    return owner, updates
