"""The LP relaxation bound of the DCMP.

:func:`dcmp_lp_upper_bound` solves the LP relaxation of the paper's
integer program (Section II.D).  Its optimum upper-bounds the true
optimum, so reporting ``algorithm / LP`` gives a certified lower bound on
the fraction of optimum achieved ("the solutions are fractional of the
optimum" is the paper's closing claim; this makes it quantitative).  The
b-matching LP of ``Offline_MaxMatch`` lives in :mod:`repro.core.matching`.
"""

from __future__ import annotations

from typing import List

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.core.instance import DataCollectionInstance
from repro.obs import get_registry, phase

__all__ = ["dcmp_lp_upper_bound"]


def dcmp_lp_upper_bound(instance: DataCollectionInstance) -> float:
    """Optimal value of the DCMP LP relaxation, in bits.

    Variables ``x_{i,j} ∈ [0, 1]`` over every positive-rate
    (sensor, slot) pair; constraints (3) per slot and (4) per sensor.
    Solved with HiGHS.  Returns 0 for instances with no transmittable
    pair.
    """
    tau = instance.slot_duration
    profits: List[float] = []
    costs: List[float] = []
    var_sensor: List[int] = []
    var_slot: List[int] = []
    for i, data in enumerate(instance.sensors):
        if data.window is None:
            continue
        slots = data.slot_indices()
        for k in np.flatnonzero(data.rates > 0):
            profits.append(float(data.rates[k]) * tau)
            costs.append(float(data.powers[k]) * tau)
            var_sensor.append(i)
            var_slot.append(int(slots[k]))
    num_vars = len(profits)
    if num_vars == 0:
        return 0.0
    profits_arr = np.asarray(profits)
    costs_arr = np.asarray(costs)
    sensor_arr = np.asarray(var_sensor, dtype=np.int64)
    slot_arr = np.asarray(var_slot, dtype=np.int64)

    n = instance.num_sensors
    t = instance.num_slots
    rows = np.concatenate([slot_arr, t + sensor_arr])
    cols = np.concatenate([np.arange(num_vars), np.arange(num_vars)])
    data = np.concatenate([np.ones(num_vars), costs_arr])
    a_ub = coo_matrix((data, (rows, cols)), shape=(t + n, num_vars)).tocsr()
    budgets = np.array([instance.budget_of(i) for i in range(n)])
    b_ub = np.concatenate([np.ones(t), budgets])
    registry = get_registry()
    registry.inc("lp.calls")
    registry.set_gauge("lp.num_vars", num_vars)
    with phase("lp.dcmp_bound"):
        res = linprog(
            c=-profits_arr, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs"
        )
    registry.set_gauge("lp.status", int(res.status))
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"DCMP LP relaxation failed: {res.message}")
    return float(-res.fun)
