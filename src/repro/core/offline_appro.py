"""``Offline_Appro`` — the paper's offline approximation algorithm.

Algorithm 1 (Section IV): with global knowledge of the network and every
sensor's profile, reduce the DCMP to GAP (bins = sensors with energy
budgets; items = time slots with per-sensor cost ``P_{i,j}·τ`` and
profit ``r_{i,j}·τ``) and run the local-ratio machinery, processing
sensors sorted by start slot then end slot.

The approximation ratio is ``1/(1+β)`` for a ``β``-approximate knapsack
solver: ``1/2`` with an exact solver (the default — the 4-level radio
table makes exact solving cheap), ``1/(2+ε)`` with the FPTAS, matching
Theorem 2.
"""

from __future__ import annotations

from functools import partial

from repro.core.allocation import Allocation
from repro.core.gap import GapInstance, local_ratio_gap
from repro.core.instance import DataCollectionInstance
from repro.core.knapsack import solve_knapsack
from repro.obs import phase

__all__ = ["offline_appro", "dcmp_to_gap"]


def dcmp_to_gap(instance: DataCollectionInstance) -> GapInstance:
    """The Section-III reduction: DCMP → GAP.

    Bin ``i`` = sensor ``v_i`` with capacity ``P(v_i)``; its candidate
    items are the slots of ``A(v_i)`` with profit ``r_{i,j}·τ`` and
    weight ``P_{i,j}·τ``.

    The reduction is memoised on the (immutable) instance: repeated
    solves over the same instance reuse its occupancy index.
    """
    cached = getattr(instance, "_dcmp_gap", None)
    if cached is not None:
        return cached
    flat = instance.flat_pairs()
    # The instance's own immutable arrays, shared: bins are its sensors
    # and each bin's items are its window's slots, distinct by
    # construction, so nothing is validated, copied or sorted again.
    gap = GapInstance.__new__(GapInstance)._set_arrays(
        flat.offsets, flat.slot, flat.profits, flat.costs, instance.budgets_array(),
        instance._slot_order(),
    )
    instance._dcmp_gap = gap
    return gap


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
    Emits the ``offline_appro`` phase and its ``offline_appro.*``
    children to :mod:`repro.obs` (reduction, local-ratio rounds).
    """
    with phase("offline_appro", n=instance.num_sensors, method=knapsack_method):
        with phase("offline_appro.reduce"):
            gap = dcmp_to_gap(instance)
        solver = partial(solve_knapsack, method=knapsack_method, epsilon=epsilon)
        with phase("offline_appro.local_ratio"):
            solution = local_ratio_gap(
                gap, knapsack_solver=solver, bin_order=instance.sensor_order()
            )
        return Allocation.from_sensor_slots(instance.num_slots, solution.assignment)
