"""Exact ILP solver for the DCMP — the paper's strawman, made concrete.

The paper motivates its combinatorial algorithm by arguing that
"traditional ILP methods take too much time and suffer poor scalability"
(Section I.B).  To reproduce that *argument* and to provide exact optima
on paper-scale instances (far beyond the brute-force oracle's reach),
this module formulates the integer program of Section II.D and hands it
to HiGHS through :func:`scipy.optimize.milp` over the runs of identical
slots of :func:`repro.core.lp.slot_run_model`, as integers
``z_{i,G} ∈ {0, …, |G|}``, which is exact:

    max  Σ r_{i,j}·τ·x_{i,j}
    s.t. Σ_i x_{i,j} ≤ 1                    ∀ slot j        (3)
         Σ_j P_{i,j}·τ·x_{i,j} ≤ P(v_i)     ∀ sensor i      (4)
         x_{i,j} ∈ {0, 1} only for j ∈ A(v_i)               (1, 2)

A ``time_limit`` makes the scalability comparison honest: when HiGHS
times out, the incumbent (if any) is returned with ``optimal=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.core.lp import load_highs, slot_run_model
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
        True when HiGHS proved optimality, at a zero gap, within the time
        limit.
    """

    allocation: Allocation
    objective_bits: float
    optimal: bool


def solve_dcmp_ilp(
    instance: DataCollectionInstance,
    time_limit: Optional[float] = None,
) -> IlpSolution:
    """Solve the DCMP integer program exactly with HiGHS, to a zero
    relative gap (``mip_rel_gap=0``; HiGHS's default stops at 1e-4).

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
    model = slot_run_model(instance)
    num_vars = model.profits.size
    if num_vars == 0:
        return IlpSolution(Allocation.empty(instance.num_slots), 0.0, True)
    matrix, upper = model.constraints(model.costs, instance.budgets_array())
    optimize, _ = load_highs()

    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    registry = get_registry()
    registry.inc("ilp.calls")
    registry.set_gauge("ilp.num_vars", num_vars)
    with phase("ilp.solve"):
        result = optimize.milp(
            c=-model.profits,
            constraints=optimize.LinearConstraint(matrix, -np.inf, upper),
            integrality=np.ones(num_vars),
            bounds=optimize.Bounds(0.0, model.width),
            options=options,
        )
    registry.set_gauge("ilp.status", int(result.status))

    if result.x is None:
        return IlpSolution(Allocation.empty(instance.num_slots), 0.0, False)

    allocation = model.allocation(result.x)
    allocation.check_feasible(instance)
    # status 0 = optimal; 1 = iteration/time limit with incumbent.
    return IlpSolution(
        allocation,
        allocation.collected_bits(instance),
        optimal=(result.status == 0),
    )
