"""Exact ILP solver for the DCMP — the paper's strawman, made concrete.

The paper motivates its combinatorial algorithm by arguing that
"traditional ILP methods take too much time and suffer poor scalability"
(Section I.B).  To reproduce that *argument* and to provide exact optima
on medium instances (far beyond the brute-force oracle's reach), this
module formulates the integer program of Section II.D verbatim and
hands it to HiGHS through :func:`scipy.optimize.milp`:

    max  Σ r_{i,j}·τ·x_{i,j}
    s.t. Σ_i x_{i,j} ≤ 1                    ∀ slot j        (3)
         Σ_j P_{i,j}·τ·x_{i,j} ≤ P(v_i)     ∀ sensor i      (4)
         x_{i,j} ∈ {0, 1} only for j ∈ A(v_i)               (1, 2)

A ``time_limit`` makes the scalability comparison honest: when HiGHS
times out, the incumbent (if any) is returned with ``optimal=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import coo_matrix

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.obs import get_registry, phase

__all__ = ["IlpSolution", "solve_dcmp_ilp"]


@dataclass(frozen=True)
class IlpSolution:
    """Outcome of an ILP solve.

    Attributes
    ----------
    allocation:
        The (possibly incumbent) integer solution.
    objective_bits:
        Its objective value.
    optimal:
        True when HiGHS proved optimality within the time limit.
    """

    allocation: Allocation
    objective_bits: float
    optimal: bool


def solve_dcmp_ilp(
    instance: DataCollectionInstance,
    time_limit: Optional[float] = None,
) -> IlpSolution:
    """Solve the DCMP integer program exactly with HiGHS.

    Parameters
    ----------
    instance:
        The problem instance.
    time_limit:
        Wall-clock budget in seconds (``None`` = unlimited).  On
        timeout the best incumbent found is returned with
        ``optimal=False``; if no incumbent exists the empty allocation
        is returned.

    Returns
    -------
    IlpSolution
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
        return IlpSolution(Allocation.empty(instance.num_slots), 0.0, True)

    profits_arr = np.asarray(profits)
    costs_arr = np.asarray(costs)
    sensor_arr = np.asarray(var_sensor, dtype=np.int64)
    slot_arr = np.asarray(var_slot, dtype=np.int64)

    n = instance.num_sensors
    t = instance.num_slots
    rows = np.concatenate([slot_arr, t + sensor_arr])
    cols = np.concatenate([np.arange(num_vars), np.arange(num_vars)])
    data = np.concatenate([np.ones(num_vars), costs_arr])
    a = coo_matrix((data, (rows, cols)), shape=(t + n, num_vars)).tocsc()
    budgets = np.array([instance.budget_of(i) for i in range(n)])
    upper = np.concatenate([np.ones(t), budgets])
    constraint = LinearConstraint(a, -np.inf, upper)

    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    registry = get_registry()
    registry.inc("ilp.calls")
    registry.set_gauge("ilp.num_vars", num_vars)
    with phase("ilp.solve"):
        result = milp(
            c=-profits_arr,
            constraints=[constraint],
            integrality=np.ones(num_vars),
            bounds=(0, 1),
            options=options,
        )
    registry.set_gauge("ilp.status", int(result.status))

    if result.x is None:
        return IlpSolution(Allocation.empty(instance.num_slots), 0.0, False)

    chosen = result.x > 0.5
    owner = np.full(instance.num_slots, -1, dtype=np.int64)
    for k in np.flatnonzero(chosen):
        owner[slot_arr[k]] = sensor_arr[k]
    allocation = Allocation(owner)
    allocation.check_feasible(instance)
    # status 0 = optimal; 1 = iteration/time limit with incumbent.
    return IlpSolution(
        allocation,
        allocation.collected_bits(instance),
        optimal=(result.status == 0),
    )
