"""The DCMP program and its LP relaxation bound.

:func:`dcmp_model` assembles the paper's integer program (Section II.D)
once, as arrays, and :func:`repro.core.ilp.solve_dcmp_ilp` solves it.
:func:`dcmp_lp_upper_bound` solves its LP relaxation.  The LP optimum
upper-bounds the true optimum, so reporting ``algorithm / LP`` gives a
certified lower bound on the fraction of optimum achieved ("the
solutions are fractional of the optimum" is the paper's closing claim;
this makes it quantitative).  The b-matching LP of ``Offline_MaxMatch``
lives in :mod:`repro.core.matching`.

The relaxation is solved over runs of identical slots, not over slots.
A pair's rate and power change only where the sink crosses a range ring
or a window edge, so long runs of consecutive slots offer the same
(sensor, profit, cost) columns.  A run ``G`` becomes one row
``Σ_i z_{i,G} ≤ |G|`` and each of its sensors one column
``z_{i,G} ∈ [0, |G|]``.  That LP has the relaxation's optimum:
``z_{i,G} = Σ_{j∈G} x_{i,j}`` maps every feasible ``x`` to a feasible
``z`` of the same objective, and ``x_{i,j} = z_{i,G}/|G|`` maps back.
The ILP keeps one variable per pair, since it must pick slots.

HiGHS, the LP solver, is reached through :mod:`scipy.optimize`, whose
import takes about twice as long as all of ``import repro``.  The
paper's own algorithms solve no LP, so every HiGHS caller imports it
through :func:`load_highs` on first use instead of at module import.
"""

from __future__ import annotations

import functools
from types import ModuleType
from typing import TYPE_CHECKING, NamedTuple, Tuple

import numpy as np

from repro.core.instance import DataCollectionInstance
from repro.obs import get_registry, phase

if TYPE_CHECKING:
    from scipy.sparse import coo_matrix

__all__ = ["DcmpModel", "dcmp_model", "dcmp_lp_upper_bound", "load_highs"]


@functools.cache
def load_highs() -> Tuple[ModuleType, ModuleType]:
    """``(scipy.optimize, scipy.sparse)``, imported on the first call.

    The first call is timed as the ``highs.load`` phase; later calls
    return the cached modules.  Entry points that time or fork solves
    (the service, ``run_bench``, ``repro profile``, ``run_sweep``)
    call it first, so no timed solve absorbs the import.
    """
    with phase("highs.load"):
        import scipy.optimize
        import scipy.sparse
    return scipy.optimize, scipy.sparse


class DcmpModel(NamedTuple):
    """The DCMP program over its positive-rate (sensor, slot) pairs.

    One variable ``x_{i,j}`` per pair of
    :meth:`~DataCollectionInstance.flat_pairs` with ``r_{i,j} > 0``, in
    the same sensor-major order.  ``matrix`` holds constraint (3) in its
    first ``T`` rows (one per slot) and constraint (4) in the next ``n``
    (one per sensor); ``upper`` is their right-hand side.
    """

    sensor: np.ndarray  # (k,) sensor of each variable
    slot: np.ndarray  # (k,) slot of each variable
    profits: np.ndarray  # (k,) r_{i,j}·τ bits
    matrix: coo_matrix  # (T + n, k)
    upper: np.ndarray  # (T + n,): 1 per slot, then P(v_i) per sensor


def dcmp_model(instance: DataCollectionInstance) -> DcmpModel:
    """Assemble the DCMP program of ``instance`` (see :class:`DcmpModel`)."""
    flat = instance.flat_pairs()
    live = flat.rates > 0
    sensor = flat.sensor[live]
    slot = flat.slot[live]
    num_vars = sensor.size
    t = instance.num_slots
    rows = np.concatenate([slot, t + sensor])
    cols = np.tile(np.arange(num_vars), 2)
    data = np.concatenate([np.ones(num_vars), flat.costs[live]])
    _, sparse = load_highs()
    matrix = sparse.coo_matrix((data, (rows, cols)), shape=(t + instance.num_sensors, num_vars))
    upper = np.concatenate([np.ones(t), instance.budgets_array()])
    return DcmpModel(sensor, slot, flat.profits[live], matrix, upper)


def _slot_run_model(
    instance: DataCollectionInstance,
) -> Tuple[np.ndarray, coo_matrix, np.ndarray, np.ndarray]:
    """The LP relaxation over runs of identical slots (module docstring).

    Returns ``(profits, matrix, upper, width)``: one column per
    (sensor, run) in sensor-major order, with profit ``r_{i,j}·τ`` and
    upper bound ``width``, the run's length; ``matrix`` holds one row
    per run (right-hand side its length), then one per sensor
    (``P(v_i)``).
    """
    flat = instance.flat_pairs()
    live = flat.rates > 0
    sensor = flat.sensor[live]
    slot = flat.slot[live]
    profits = flat.profits[live]
    costs = flat.costs[live]
    t = instance.num_slots
    # Pair k + 1 carries pair k's column into the next slot.
    carries = (
        (sensor[1:] == sensor[:-1])
        & (slot[1:] == slot[:-1] + 1)
        & (profits[1:] == profits[:-1])
        & (costs[1:] == costs[:-1])
    )
    columns = np.bincount(slot, minlength=t)
    carried = np.bincount(slot[:-1][carries], minlength=t)[:-1]
    # Slot j + 1 repeats slot j when every column of each is carried over.
    repeats = (columns[:-1] == carried) & (columns[1:] == carried)
    run_of_slot = np.concatenate([[0], np.cumsum(~repeats)])
    run_length = np.bincount(run_of_slot).astype(np.float64)
    run = run_of_slot[slot]
    head = np.ones(sensor.size, dtype=bool)
    head[1:] = (sensor[1:] != sensor[:-1]) | (run[1:] != run[:-1])
    num_vars = int(head.sum())
    num_runs = run_length.size
    rows = np.concatenate([run[head], num_runs + sensor[head]])
    cols = np.tile(np.arange(num_vars), 2)
    data = np.concatenate([np.ones(num_vars), costs[head]])
    _, sparse = load_highs()
    shape = (num_runs + instance.num_sensors, num_vars)
    matrix = sparse.coo_matrix((data, (rows, cols)), shape=shape)
    upper = np.concatenate([run_length, instance.budgets_array()])
    return profits[head], matrix, upper, run_length[run[head]]


def dcmp_lp_upper_bound(instance: DataCollectionInstance) -> float:
    """Optimal value of the DCMP LP relaxation, in bits.

    The program of :func:`dcmp_model` with ``x_{i,j} ∈ [0, 1]``, solved
    with HiGHS over runs of identical slots: one row per run and one
    column per (sensor, run), which is exact (module docstring) and
    moves the value only by HiGHS's rounding.  The ``lp.num_vars``
    gauge counts those merged columns.
    Returns 0 for instances with no transmittable pair.

    The bound depends on the instance alone, so it is memoised on the
    (immutable) instance: ``lp.calls`` and the ``lp.dcmp_bound`` phase
    record real solves only, and every later caller (certificates, the
    service response, the fuzzer's relations) reuses the first value.
    """
    if instance._lp_bound is not None:
        return instance._lp_bound
    profits, matrix, upper, width = _slot_run_model(instance)
    if profits.size == 0:
        instance._lp_bound = 0.0
        return 0.0

    optimize, _ = load_highs()
    registry = get_registry()
    registry.inc("lp.calls")
    registry.set_gauge("lp.num_vars", profits.size)
    with phase("lp.dcmp_bound"):
        res = optimize.linprog(
            c=-profits,
            A_ub=matrix.tocsr(),
            b_ub=upper,
            bounds=np.column_stack([np.zeros_like(width), width]),
            method="highs",
        )
    registry.set_gauge("lp.status", int(res.status))
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"DCMP LP relaxation failed: {res.message}")
    instance._lp_bound = float(-res.fun)
    return instance._lp_bound
