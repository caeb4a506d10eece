"""The LP relaxation bound of the DCMP.

:func:`dcmp_lp_upper_bound` solves the LP relaxation of the paper's
integer program (Section II.D).  Its optimum upper-bounds the true
optimum, so reporting ``algorithm / LP`` gives a certified lower bound on
the fraction of optimum achieved ("the solutions are fractional of the
optimum" is the paper's closing claim; this makes it quantitative).  The
b-matching LP of ``Offline_MaxMatch`` lives in :mod:`repro.core.matching`.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.core.instance import DataCollectionInstance
from repro.obs import get_registry, phase

__all__ = ["dcmp_lp_upper_bound"]


def dcmp_lp_upper_bound(instance: DataCollectionInstance) -> float:
    """Optimal value of the DCMP LP relaxation, in bits.

    Variables ``x_{i,j} ∈ [0, 1]`` over every positive-rate
    (sensor, slot) pair of :meth:`~DataCollectionInstance.flat_pairs`;
    constraints (3) per slot and (4) per sensor.  Solved with HiGHS.
    Returns 0 for instances with no transmittable pair.

    The bound depends on the instance alone, so it is memoised on the
    (immutable) instance: ``lp.calls`` and the ``lp.dcmp_bound`` phase
    record real solves only, and every later caller (certificates, the
    service response, the fuzzer's relations) reuses the first value.
    """
    if instance._lp_bound is not None:
        return instance._lp_bound
    flat = instance.flat_pairs()
    live = flat.rates > 0
    num_vars = int(np.count_nonzero(live))
    if num_vars == 0:
        instance._lp_bound = 0.0
        return 0.0

    n = instance.num_sensors
    t = instance.num_slots
    rows = np.concatenate([flat.slot[live], t + flat.sensor[live]])
    cols = np.tile(np.arange(num_vars), 2)
    data = np.concatenate([np.ones(num_vars), flat.costs[live]])
    a_ub = coo_matrix((data, (rows, cols)), shape=(t + n, num_vars)).tocsr()
    b_ub = np.concatenate([np.ones(t), instance.budgets_array()])
    registry = get_registry()
    registry.inc("lp.calls")
    registry.set_gauge("lp.num_vars", num_vars)
    with phase("lp.dcmp_bound"):
        res = linprog(
            c=-flat.profits[live],
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=(0.0, 1.0),
            method="highs",
        )
    registry.set_gauge("lp.status", int(res.status))
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"DCMP LP relaxation failed: {res.message}")
    instance._lp_bound = float(-res.fun)
    return instance._lp_bound
