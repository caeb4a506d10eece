"""The DCMP over runs of identical slots, and its LP relaxation bound.

The paper's integer program (Section II.D, written out in
:mod:`repro.core.ilp`) has one variable ``x_{i,j}`` per (sensor, slot)
pair.  A pair's rate and power change only where the sink crosses a
range ring or a window edge, so long runs of consecutive slots offer the
same (sensor, profit, cost) columns.  :func:`slot_run_model` merges
them: a run ``G`` becomes one row ``Σ_i z_{i,G} ≤ |G|`` and each of its
sensors one column ``z_{i,G} ∈ [0, |G|]``, the number of ``G``'s slots
sensor ``i`` gets.  ``z_{i,G} = Σ_{j∈G} x_{i,j}`` maps every feasible
``x`` to a feasible ``z`` of the same objective.  The way back is
``x_{i,j} = z_{i,G}/|G|`` for the LP relaxation
(:func:`dcmp_lp_upper_bound`) and, for the ILP and ``Offline_MaxMatch``'s
b-matching, whose ``z`` is integral, :meth:`SlotRunModel.allocation`:
slots within a run are interchangeable.

The LP optimum upper-bounds the true optimum, so reporting
``algorithm / LP`` gives a certified lower bound on the fraction of
optimum achieved ("the solutions are fractional of the optimum" is the
paper's closing claim; this makes it quantitative).

HiGHS, the LP solver, is reached through :mod:`scipy.optimize`, whose
import takes about twice as long as all of ``import repro``.  The
paper's own algorithms solve no LP, so every HiGHS caller, and the
MaxMatch b-matching's sparse assignment, imports scipy through
:func:`load_highs` on first use instead of at module import.
"""

from __future__ import annotations

import functools
from types import ModuleType
from typing import TYPE_CHECKING, NamedTuple, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.obs import get_registry, phase
from repro.utils.arrays import group_offsets, ragged_arange

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = ["SlotRunModel", "slot_run_model", "dcmp_lp_upper_bound", "load_highs"]


@functools.cache
def load_highs() -> Tuple[ModuleType, ModuleType]:
    """``(scipy.optimize, scipy.sparse)``, imported on the first call.

    ``scipy.sparse.csgraph``, the b-matching's assignment solver, is
    imported with them and reached as ``scipy.sparse.csgraph``.  The
    first call is timed as the ``highs.load`` phase; later calls
    return the cached modules.  Entry points that time or fork solves
    (the service, ``run_bench``, ``repro profile``, ``run_sweep``)
    call it first, so no timed solve absorbs the import.
    """
    with phase("highs.load"):
        import scipy.optimize
        import scipy.sparse
        import scipy.sparse.csgraph
    return scipy.optimize, scipy.sparse


class SlotRunModel(NamedTuple):
    """The DCMP over runs of identical slots (module docstring).

    One column per (sensor, run) with a positive rate, sensor-major with
    runs ascending; run ``g`` covers slots ``[bounds[g], bounds[g+1])``.
    """

    sensor: np.ndarray  # (k,) sensor of each column
    run: np.ndarray  # (k,) run of each column
    profits: np.ndarray  # (k,) r_{i,j}·τ bits per slot
    costs: np.ndarray  # (k,) P_{i,j}·τ joules per slot
    bounds: np.ndarray  # (R + 1,) slot boundaries of the runs

    @property
    def width(self) -> np.ndarray:
        """``(k,)`` float64 upper bound of each column: its run's length."""
        return np.diff(self.bounds).astype(np.float64)[self.run]

    def constraints(self, row: np.ndarray, upper: np.ndarray) -> Tuple[csr_matrix, np.ndarray]:
        """``(matrix, rhs)``: one row ``Σ_i z_{i,G} ≤ |G|`` per run, then
        one row ``Σ_G row·z_{i,G} ≤ upper[i]`` per sensor (``row`` is
        aligned with the columns, ``upper`` with the sensors)."""
        num_vars = self.sensor.size
        num_runs = self.bounds.size - 1
        rows = np.concatenate([self.run, num_runs + self.sensor])
        cols = np.tile(np.arange(num_vars), 2)
        data = np.concatenate([np.ones(num_vars), row])
        _, sparse = load_highs()
        shape = (num_runs + upper.size, num_vars)
        matrix = sparse.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
        return matrix, np.concatenate([np.diff(self.bounds), upper])

    def linprog(self, row: np.ndarray, upper: np.ndarray, timer: str):
        """Maximise profit over :meth:`constraints` and ``z_{i,G} ∈ [0, |G|]``
        with ``linprog(method="highs")``, timed as ``timer``."""
        matrix, rhs = self.constraints(row, upper)
        bounds = np.column_stack([np.zeros(self.run.size), self.width])
        optimize, _ = load_highs()
        with phase(timer):
            return optimize.linprog(-self.profits, matrix, rhs, bounds=bounds, method="highs")

    def allocation(self, counts: np.ndarray) -> Allocation:
        """Expand per-column slot counts (rounded) into an allocation: each
        run's slots go to its columns in ascending sensor order."""
        # Run-major, sensors still ascending within a run.
        order = np.argsort(self.run, kind="stable")
        counts = np.rint(counts[order]).astype(np.int64)
        run = self.run[order]
        before = group_offsets(counts)[:-1]
        start = self.bounds[run] + before - before[np.searchsorted(run, run)]
        if np.any(start + counts > self.bounds[run + 1]):
            raise ValueError("slot counts overfill a run")
        slots = np.repeat(start, counts) + ragged_arange(counts)
        owner = np.full(self.bounds[-1], -1, dtype=np.int64)
        owner[slots] = np.repeat(self.sensor[order], counts)
        return Allocation(owner)


def slot_run_model(instance: DataCollectionInstance) -> SlotRunModel:
    """The :class:`SlotRunModel` of ``instance``'s positive-rate pairs."""
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
    run = run_of_slot[slot]
    head = np.ones(sensor.size, dtype=bool)
    head[1:] = (sensor[1:] != sensor[:-1]) | (run[1:] != run[:-1])
    bounds = group_offsets(np.bincount(run_of_slot))
    return SlotRunModel(sensor[head], run[head], profits[head], costs[head], bounds)


def dcmp_lp_upper_bound(instance: DataCollectionInstance) -> float:
    """Optimal value of the DCMP LP relaxation, in bits.

    The DCMP program with ``x_{i,j} ∈ [0, 1]``, solved with HiGHS over
    :func:`slot_run_model`: one row per run and one column per (sensor,
    run), which is exact and moves the value only by HiGHS's rounding.
    The ``lp.num_vars`` gauge counts those merged columns.
    Returns 0 for instances with no transmittable pair.

    The bound depends on the instance alone, so it is memoised on the
    (immutable) instance: ``lp.calls`` and the ``lp.dcmp_bound`` phase
    record real solves only, and every later caller (certificates, the
    service response, the fuzzer's relations) reuses the first value.
    """
    if instance._lp_bound is not None:
        return instance._lp_bound
    model = slot_run_model(instance)
    if model.profits.size == 0:
        instance._lp_bound = 0.0
        return 0.0

    registry = get_registry()
    registry.inc("lp.calls")
    registry.set_gauge("lp.num_vars", model.profits.size)
    res = model.linprog(model.costs, instance.budgets_array(), "lp.dcmp_bound")
    registry.set_gauge("lp.status", int(res.status))
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"DCMP LP relaxation failed: {res.message}")
    instance._lp_bound = float(-res.fun)
    return instance._lp_bound
