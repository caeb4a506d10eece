"""Scalar reference oracles for the array-native solver core.

Each function here is a deliberately naive, loop-based re-implementation
of a vectorised production routine.  They exist so the equivalence suite
(:mod:`tests.test_array_equivalence`) can assert that the numpy forms
are *bit-identical* to the scalar semantics they replaced — same
selections, same IEEE-754 accumulation order, same error behaviour —
not merely "close".

:func:`dcmp_lp_reference_bound` is the per-pair LP model; the bound
solved over runs of identical slots must reach its optimum within the
tolerance of ``certify``'s ``lp_upper_bound`` check.
:func:`dcmp_model` is the per-pair integer program, one variable per
positive-rate (sensor, slot) pair, and :func:`dcmp_ilp_reference` solves
it to a zero gap: the ILP over runs must reach the same optimum.

The path references are the two coverage models one exact
segment–disc intersection replaced: :class:`LinearPathReference`, the
straight road as its own class with the closed-form chord
``x ± √(R² − y²)``, and :func:`sampled_coverage_window`, the enclosing
window of a 0.5 m sampling grid over any path.  A
:class:`LinearPathReference` can stand in for the production path inside
:class:`~repro.network.path.SinkTrajectory` (it has ``length``,
``point_at`` and ``coverage_window``).

The harvest references are the per-sensor loops one shared integral
replaced: :func:`energy_density_reference` is the one-window
``linspace`` + ``trapezoid`` integral, :func:`initial_charges_reference`
the per-sensor initial-charge list of a scenario build, and
:func:`simulate_tours_reference` the per-sensor energy update of a tour.
:class:`Battery` is one node's scalar store, the per-node object the
network's charge array replaced; the reference tours run one per node.

The matching oracles are independent solvers rather than re-traced
loops: a successive-shortest-path min-cost flow (:class:`MinCostFlow`,
:func:`mcmf_b_matching`), a dense assignment over left-node copies
(:func:`lsa_b_matching`) and the paper's literal Section-VI node-copies
graph G′ (:func:`build_copies_graph`, :func:`maxmatch_via_copies`),
plus :func:`linprog_b_matching`, the b-matching LP handed to HiGHS
through ``linprog(method="highs-ds")`` from a COO matrix and a per-edge
tuple list.  The production sparse assignment must reach the same
optimal *weight* as these; which of several tied optima it picks is its
own.  :func:`fixed_power_of_reference` is the per-sensor scan the
flat-pair power check replaced.

:class:`SensorSlotData` and :class:`GapBin` are the per-record forms
the flat arrays replaced, with their own checks: one record per sensor
(:func:`sensor_records` slices them from an instance,
:func:`instance_from_records` concatenates them into one) and one per
GAP bin (:func:`gap_bins`, :func:`gap_from_bins`).
:func:`instance_reference`, :func:`restrict_reference` and
:func:`gap_reference` build from them: one ``SlotInterval`` and one
record per sensor with flat pairs concatenated from those, the
per-sensor restriction loop, and one ``GapBin`` per sensor with an
occupancy index built item by item.  The fuzzer's four metamorphic
relations (:func:`reverse_slots_reference` and the three after it) and
the shrinker's four passes (:data:`SHRINK_PASS_REFERENCES`) edit those
records one sensor at a time.

:func:`run_online_reference` is the online framework with its
per-slot merge loop: scalar ``cost``/``profit`` lookups, one debit and
one ``+=`` per assigned slot, and :func:`restrict_reference` for each
interval's sub-instance.

Keep these boring: single code path, plain Python floats, nested loops.
Any cleverness added here defeats their purpose as references.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import LinearConstraint, linprog, milp
from scipy.sparse import coo_matrix

from repro.core.allocation import BUDGET_EPS, UNASSIGNED, Allocation
from repro.core.gap import GapInstance, KnapsackSolver
from repro.core.instance import DataCollectionInstance, FlatPairs
from repro.core.matching import MatchingResult
from repro.core.offline_maxmatch import _POWER_RTOL, fixed_power_of
from repro.energy.solar import SolarDayProfile, cloudy_profile, sunny_profile
from repro.online.framework import IntervalRecord, IntervalScheduler, OnlineResult
from repro.online.messages import MessageLog, MessageType
from repro.sim.scenario import ScenarioConfig
from repro.utils.intervals import SlotInterval
from repro.utils.rng import RngStream

__all__ = [
    "SensorSlotData",
    "sensor_record",
    "sensor_records",
    "instance_from_records",
    "GapBin",
    "gap_from_bins",
    "gap_bins",
    "knapsack_few_weights_oracle",
    "local_ratio_gap_oracle",
    "allocation_stats_oracle",
    "dcmp_lp_reference_bound",
    "DcmpModel",
    "dcmp_model",
    "dcmp_ilp_reference",
    "LinearPathReference",
    "sampled_coverage_window",
    "sampling_step",
    "energy_density_reference",
    "initial_charges_reference",
    "Battery",
    "simulate_tours_reference",
    "MinCostFlow",
    "mcmf_b_matching",
    "lsa_b_matching",
    "linprog_b_matching",
    "fixed_power_of_reference",
    "InstanceReference",
    "instance_reference",
    "restrict_reference",
    "GapReference",
    "gap_reference",
    "run_online_reference",
    "CopiesGraph",
    "build_copies_graph",
    "maxmatch_via_copies",
    "reverse_slots_reference",
    "relabel_sensors_reference",
    "scale_profits_reference",
    "scale_energy_reference",
    "SHRINK_PASS_REFERENCES",
]


# ----------------------------------------------------------------------
# Per-record forms: one record per sensor, one per GAP bin
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SensorSlotData:
    """One sensor's slot data aligned with its availability window, the
    record the instance's flat arrays replaced, with its own checks.

    ``rates[k]`` / ``powers[k]`` describe slot ``window.start + k``.
    Arrays are immutable (flags cleared at construction).
    """

    window: Optional[SlotInterval]
    rates: np.ndarray  # bits/s, shape (|A|,)
    powers: np.ndarray  # watts, shape (|A|,)
    budget: float  # joules

    def __post_init__(self) -> None:
        size = 0 if self.window is None else len(self.window)
        if self.rates.shape != (size,) or self.powers.shape != (size,):
            raise ValueError(
                f"rates/powers must have shape ({size},); got "
                f"{self.rates.shape} / {self.powers.shape}"
            )
        if not (np.isfinite(self.rates).all() and np.isfinite(self.powers).all()):
            raise ValueError("rates and powers must contain only finite values")
        if (self.rates < 0).any() or (self.powers < 0).any():
            raise ValueError("rates and powers must be non-negative")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        self.rates.flags.writeable = False
        self.powers.flags.writeable = False

    @property
    def num_slots(self) -> int:
        """``|A(v_i)|``."""
        return 0 if self.window is None else len(self.window)

    def slot_indices(self) -> np.ndarray:
        """Global slot indices of the window (empty when unreachable)."""
        if self.window is None:
            return np.zeros(0, dtype=np.int64)
        return self.window.slots()


def sensor_record(instance: DataCollectionInstance, sensor: int) -> SensorSlotData:
    """Sensor ``sensor``'s :class:`SensorSlotData`: a slice of the
    instance's arrays, read through the scalar accessors ``window_of``
    and ``budget_of``."""
    flat = instance.flat_pairs()
    lo, hi = flat.offsets[sensor : sensor + 2].tolist()
    return SensorSlotData(
        instance.window_of(sensor), flat.rates[lo:hi], flat.powers[lo:hi], instance.budget_of(sensor)
    )


def sensor_records(instance) -> List[SensorSlotData]:
    """One :class:`SensorSlotData` per sensor: an
    :class:`InstanceReference`'s own records, or :func:`sensor_record`
    of each sensor of an instance."""
    if isinstance(instance, InstanceReference):
        return list(instance.sensors)
    return [sensor_record(instance, i) for i in range(instance.num_sensors)]


def instance_from_records(
    num_slots: int, slot_duration: float, records: Sequence[SensorSlotData]
) -> DataCollectionInstance:
    """The per-record constructor the array constructor replaced: each
    record's window checked against the horizon, then the records'
    arrays concatenated once."""
    starts: List[int] = []
    ends: List[int] = []
    for i, data in enumerate(records):
        if data.window is None:
            starts.append(0)
            ends.append(-1)
            continue
        if data.window.start < 0 or data.window.end >= num_slots:
            raise ValueError(f"sensor {i} window {data.window} outside [0, {num_slots - 1}]")
        starts.append(data.window.start)
        ends.append(data.window.end)
    return DataCollectionInstance(
        num_slots,
        slot_duration,
        starts,
        ends,
        np.concatenate([np.zeros(0), *(data.rates for data in records)]),
        np.concatenate([np.zeros(0), *(data.powers for data in records)]),
        [data.budget for data in records],
    )


@dataclass(frozen=True)
class GapBin:
    """One bin of a GAP instance, the record the flat GAP arrays
    replaced: capacity ``b_i``, candidate ``items`` and, aligned with
    them, ``profits`` ``c_{i,j}`` and ``weights`` ``b_{i,j}``."""

    capacity: float
    items: np.ndarray
    profits: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        items = np.asarray(self.items, dtype=np.int64)
        profits = np.asarray(self.profits, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if not (items.shape == profits.shape == weights.shape) or items.ndim != 1:
            raise ValueError("items, profits, weights must be equal-length 1-D")
        if len(np.unique(items)) != len(items):
            raise ValueError("bin candidate items must be distinct")
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "profits", profits)
        object.__setattr__(self, "weights", weights)


def gap_from_bins(bins: Sequence[GapBin]) -> GapInstance:
    """A textbook GAP instance from one :class:`GapBin` per bin,
    concatenated once."""
    return GapInstance(
        np.cumsum([0, *(b.items.size for b in bins)]),
        np.concatenate([np.zeros(0, dtype=np.int64), *(b.items for b in bins)]),
        np.concatenate([np.zeros(0), *(b.profits for b in bins)]),
        np.concatenate([np.zeros(0), *(b.weights for b in bins)]),
        [b.capacity for b in bins],
    )


def gap_bins(gap: GapInstance) -> List[GapBin]:
    """One :class:`GapBin` per bin, slices of ``gap``'s flat arrays."""
    edges = gap.offsets.tolist()
    return [
        GapBin(
            capacity,
            gap.items[edges[l] : edges[l + 1]],
            gap.profits[edges[l] : edges[l + 1]],
            gap.weights[edges[l] : edges[l + 1]],
        )
        for l, capacity in enumerate(gap.capacities.tolist())
    ]


# ----------------------------------------------------------------------
# Knapsack: exact few-distinct-weights enumeration, one code path
# ----------------------------------------------------------------------
def knapsack_few_weights_oracle(
    profits: Sequence[float], weights: Sequence[float], capacity: float
) -> Tuple[Tuple[int, ...], float, float]:
    """Reference for :func:`repro.core.knapsack.knapsack_few_weights`.

    Returns ``(selected, profit, weight)`` with the production
    semantics: filter to positive-profit items affordable within the
    1e-12 slack (raising on any negative weight), group by weight value
    (classes ascending, members profit-descending with ascending-index
    ties), take all zero-weight items, greedy-fill the largest class,
    enumerate count vectors over the rest in row-major order keeping the
    earliest profit tie, and report the selection index-ascending with
    sequential summation.
    """
    p_all = [float(x) for x in profits]
    w_all = [float(x) for x in weights]
    if len(p_all) != len(w_all):
        raise ValueError("profits and weights must be equal-length")
    idx: List[int] = []
    p: List[float] = []
    w: List[float] = []
    for k, wv in enumerate(w_all):
        if wv < 0.0:
            raise ValueError("weights must be non-negative")
        if p_all[k] > 0.0 and wv <= capacity + 1e-12:
            idx.append(k)
            p.append(p_all[k])
            w.append(wv)
    n = len(idx)
    if n == 0:
        return (), 0.0, 0.0

    groups: Dict[float, List[int]] = {}
    for k in range(n):
        groups.setdefault(w[k], []).append(k)
    base_profit = 0.0
    base_chosen: List[int] = []
    classes: List[Tuple[float, List[int], List[float]]] = []
    for weight_value in sorted(groups):
        members = sorted(groups[weight_value], key=lambda k: -p[k])
        prefix = [0.0]
        acc = 0.0
        for k in members:
            acc += p[k]
            prefix.append(acc)
        if weight_value == 0.0:
            base_profit += acc
            base_chosen.extend(members)
        else:
            classes.append((weight_value, members, prefix))

    chosen = list(base_chosen)
    if classes:
        sizes = [len(members) for _, members, _ in classes]
        greedy_class = max(range(len(sizes)), key=sizes.__getitem__)
        enum = [c for k, c in enumerate(classes) if k != greedy_class]
        g_weight, g_members, g_prefix = classes[greedy_class]
        g_size = len(g_members)
        limits = [
            min(len(members), int(capacity / weight_value + 1e-12))
            for weight_value, members, _ in enum
        ]
        cap_slack = capacity + 1e-12
        best_total = -math.inf
        best_counts: Tuple[int, ...] = tuple(0 for _ in enum)
        best_g = 0
        # product() varies the last factor fastest: row-major order,
        # exactly the production enumeration order (ties keep the
        # earliest combination).
        for counts in itertools.product(*(range(lim + 1) for lim in limits)):
            used = 0.0
            acc = base_profit
            for k, count in enumerate(counts):
                used += count * enum[k][0]
                acc += enum[k][2][count]
            if used <= cap_slack:
                g_count = min(
                    g_size, int(math.floor((capacity - used) / g_weight + 1e-12))
                )
                if g_count < 0:
                    g_count = 0
                total = acc + g_prefix[g_count]
                if total > best_total:
                    best_total = total
                    best_counts = counts
                    best_g = g_count
        for count, (_, members, _) in zip(best_counts, enum):
            chosen.extend(members[:count])
        chosen.extend(g_members[:best_g])

    chosen.sort()
    profit = 0.0
    weight = 0.0
    for k in chosen:
        profit += p[k]
        weight += w[k]
    return tuple(idx[k] for k in chosen), profit, weight


# ----------------------------------------------------------------------
# GAP: scalar local-ratio residual loop
# ----------------------------------------------------------------------
def local_ratio_gap_oracle(
    instance: GapInstance,
    knapsack_solver: KnapsackSolver,
    bin_order: Optional[Sequence[int]] = None,
) -> Tuple[Dict[int, List[int]], Dict[int, List[int]], float, int]:
    """Reference for :func:`repro.core.gap.local_ratio_gap`.

    Returns ``(assignment, tentative, profit, residual_updates)``.
    Residuals live in per-bin Python lists; each round subtracts the
    chosen items' positive residuals from every *other* bin containing
    them, one scalar subtraction per occurrence (the quantity the
    ``gap.residual_updates`` counter reports).
    """
    order = (
        list(range(instance.num_bins)) if bin_order is None else list(bin_order)
    )
    if sorted(order) != list(range(instance.num_bins)):
        raise ValueError("bin_order must be a permutation of all bins")
    bins = gap_bins(instance)
    residual: List[List[float]] = [b.profits.astype(float).tolist() for b in bins]
    occurrences: Dict[int, List[Tuple[int, int]]] = {}
    for bin_index, b in enumerate(bins):
        for pos, item in enumerate(b.items.tolist()):
            occurrences.setdefault(item, []).append((bin_index, pos))

    tentative: Dict[int, List[int]] = {}
    updates = 0
    for l in order:
        b = bins[l]
        result = knapsack_solver(
            np.asarray(residual[l], dtype=np.float64), b.weights, b.capacity
        )
        chosen = result.selected
        if chosen:
            items_l = b.items.tolist()
            tentative[l] = [items_l[k] for k in chosen]
            for k in chosen:
                delta = residual[l][k]
                if delta > 0.0:
                    for other_bin, pos in occurrences[items_l[k]]:
                        if other_bin != l:
                            residual[other_bin][pos] -= delta
                            updates += 1
        else:
            tentative[l] = []
        residual[l] = [float("-inf")] * len(residual[l])

    taken: set = set()
    assignment: Dict[int, List[int]] = {}
    for l in reversed(order):
        mine = [item for item in tentative[l] if item not in taken]
        assignment[l] = sorted(mine)
        taken.update(mine)

    # Profit under the original profits, accumulated in the same order
    # as production: bins in assignment insertion order, items ascending.
    profit = 0.0
    for l, items in assignment.items():
        b = bins[l]
        lookup = {int(item): k for k, item in enumerate(b.items.tolist())}
        for item in items:
            profit += float(b.profits[lookup[item]])
    return (
        assignment,
        {k: sorted(v) for k, v in tentative.items()},
        profit,
        updates,
    )


# ----------------------------------------------------------------------
# Allocation accounting: scalar sweeps
# ----------------------------------------------------------------------
def allocation_stats_oracle(
    allocation: Allocation, instance: DataCollectionInstance
) -> Tuple[float, List[float], List[float], List[str], Dict[str, List[Dict[str, Any]]]]:
    """Reference for :meth:`repro.core.allocation.Allocation.audit` and
    the accounting and certificate checks that read it.

    Returns ``(collected_bits, energy_spent, per_sensor_bits,
    violations, records)`` computed with per-slot scalar loops and the
    scalar ``instance.profit`` / ``instance.cost`` accessors, matching
    the vectorised pass's accumulation order (slot-ascending) and its
    violation message text exactly.  ``records`` maps the certificate's
    ``sensor_ids``, ``windows`` and ``budgets`` checks to their
    violation records.
    """
    n = instance.num_sensors
    records: Dict[str, List[Dict[str, Any]]] = {"sensor_ids": [], "windows": [], "budgets": []}
    if allocation.num_slots != instance.num_slots:
        return (
            0.0,
            [0.0] * n,
            [0.0] * n,
            [
                f"allocation horizon {allocation.num_slots} != "
                f"instance horizon {instance.num_slots}"
            ],
            records,
        )
    collected = 0.0
    energy = [0.0] * n
    bits = [0.0] * n
    problems: List[str] = []
    for slot, owner in enumerate(allocation.slot_owner.tolist()):
        if owner == UNASSIGNED:
            continue
        if not (0 <= owner < n):
            problems.append(f"slot {slot}: unknown sensor {owner}")
            records["sensor_ids"].append({"slot": slot, "sensor": owner, "num_sensors": n})
            continue
        window = instance.window_of(owner)
        if window is None or not (window.start <= slot <= window.end):
            problems.append(f"slot {slot}: outside A(v_{owner}) = {window}")
            records["windows"].append(
                {
                    "slot": slot,
                    "sensor": owner,
                    "window": None if window is None else [window.start, window.end],
                }
            )
            continue
        collected += instance.profit(owner, slot)
        energy[owner] += instance.cost(owner, slot)
        bits[owner] += instance.profit(owner, slot)
    budgets = instance.budgets_array().tolist()
    for sensor in range(n):
        if energy[sensor] > budgets[sensor] + BUDGET_EPS:
            problems.append(
                f"sensor {sensor}: energy {energy[sensor]:.9f} J exceeds "
                f"budget {budgets[sensor]:.9f} J by "
                f"{energy[sensor] - budgets[sensor]:.3e} J"
            )
            records["budgets"].append(
                {
                    "sensor": sensor,
                    "budget_j": budgets[sensor],
                    "spent_j": energy[sensor],
                    "excess_j": energy[sensor] - budgets[sensor],
                }
            )
    return collected, energy, bits, problems, records


# ----------------------------------------------------------------------
# LP bound: the per-pair model
# ----------------------------------------------------------------------
def dcmp_lp_reference_bound(instance: DataCollectionInstance) -> float:
    """Reference for :func:`repro.core.lp.dcmp_lp_upper_bound`.

    Assembles the DCMP LP relaxation one positive-rate (sensor, slot)
    pair at a time from the per-sensor views, with the scalar
    ``budget_of`` accessor, and solves it with HiGHS: one row per slot
    and one variable per pair, sensor-major with slots ascending.  The
    production bound solves the equivalent LP over runs of identical
    slots, so the two optima agree up to HiGHS's rounding, within the
    tolerance of ``certify``'s ``lp_upper_bound`` check.  Never memoised
    and never recorded on a registry.
    """
    tau = instance.slot_duration
    profits: List[float] = []
    costs: List[float] = []
    var_sensor: List[int] = []
    var_slot: List[int] = []
    for i, data in enumerate(sensor_records(instance)):
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
    n = instance.num_sensors
    t = instance.num_slots
    rows = np.concatenate(
        [np.asarray(var_slot, dtype=np.int64), t + np.asarray(var_sensor, dtype=np.int64)]
    )
    cols = np.concatenate([np.arange(num_vars), np.arange(num_vars)])
    data = np.concatenate([np.ones(num_vars), np.asarray(costs)])
    a_ub = coo_matrix((data, (rows, cols)), shape=(t + n, num_vars)).tocsr()
    budgets = np.array([instance.budget_of(i) for i in range(n)])
    res = linprog(
        c=-np.asarray(profits),
        A_ub=a_ub,
        b_ub=np.concatenate([np.ones(t), budgets]),
        bounds=(0.0, 1.0),
        method="highs",
    )
    assert res.success, res.message
    return float(-res.fun)


# ----------------------------------------------------------------------
# ILP: the per-pair program
# ----------------------------------------------------------------------
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
    """The per-pair DCMP program of ``instance`` (see :class:`DcmpModel`)."""
    flat = instance.flat_pairs()
    live = flat.rates > 0
    sensor = flat.sensor[live]
    slot = flat.slot[live]
    num_vars = sensor.size
    t = instance.num_slots
    rows = np.concatenate([slot, t + sensor])
    cols = np.tile(np.arange(num_vars), 2)
    data = np.concatenate([np.ones(num_vars), flat.costs[live]])
    matrix = coo_matrix((data, (rows, cols)), shape=(t + instance.num_sensors, num_vars))
    upper = np.concatenate([np.ones(t), instance.budgets_array()])
    return DcmpModel(sensor, slot, flat.profits[live], matrix, upper)


def dcmp_ilp_reference(instance: DataCollectionInstance) -> Allocation:
    """Reference for :func:`repro.core.ilp.solve_dcmp_ilp`.

    The per-pair program of :func:`dcmp_model` through ``milp`` with
    ``x_{i,j} ∈ {0, 1}`` and ``mip_rel_gap=0``; returns the optimal
    allocation, checked feasible.  Never recorded on a registry.
    """
    model = dcmp_model(instance)
    owner = np.full(instance.num_slots, UNASSIGNED, dtype=np.int64)
    if model.profits.size:
        res = milp(
            c=-model.profits,
            constraints=LinearConstraint(model.matrix.tocsc(), -np.inf, model.upper),
            integrality=np.ones(model.profits.size),
            bounds=(0, 1),
            options={"mip_rel_gap": 0.0},
        )
        assert res.status == 0, res.message
        chosen = res.x > 0.5
        owner[model.slot[chosen]] = model.sensor[chosen]
    allocation = Allocation(owner)
    allocation.check_feasible(instance)
    return allocation


# ----------------------------------------------------------------------
# Path: the closed-form straight road and the sampled enclosing window
# ----------------------------------------------------------------------
class LinearPathReference:
    """Reference straight road along the x-axis from ``(0, 0)`` to
    ``(length, 0)``, the first of the two path models the one
    :class:`~repro.network.geometry.PiecewiseLinearPath` replaced.

    ``point_at`` returns ``(arc, 0.0)`` and ``coverage_window`` the chord
    ``[x − w, x + w]``, ``w = √(R² − y²)``, clipped to ``[0, length]``;
    the two-waypoint production path must equal both under ``==``.
    """

    def __init__(self, length: float):
        if not length > 0:
            raise ValueError(f"length must be > 0, got {length}")
        self.length = float(length)

    def point_at(self, arc):
        arc_arr = np.clip(np.asarray(arc, dtype=np.float64), 0.0, self.length)
        if arc_arr.ndim == 0:
            return np.array([float(arc_arr), 0.0])
        out = np.zeros(arc_arr.shape + (2,), dtype=np.float64)
        out[..., 0] = arc_arr
        return out

    def coverage_window(self, xy, radius: float) -> Tuple[np.ndarray, np.ndarray]:
        xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
        lateral = np.abs(xy[:, 1])
        half = np.sqrt(np.maximum(radius**2 - lateral**2, 0.0))
        reachable = lateral <= radius
        lo = np.where(reachable, np.clip(xy[:, 0] - half, 0.0, self.length), 1.0)
        hi = np.where(reachable, np.clip(xy[:, 0] + half, 0.0, self.length), 0.0)
        # A chord that misses [0, L] entirely is unreachable too.
        beyond = reachable & ((xy[:, 0] + half < 0.0) | (xy[:, 0] - half > self.length))
        lo = np.where(beyond, 1.0, lo)
        hi = np.where(beyond, 0.0, hi)
        return lo, hi


def sampled_coverage_window(path, xy, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Reference enclosing window on a sampling grid, the second path
    model: the first and last of ``min(2·L + 2, 200,001)`` evenly spaced
    arcs (about 0.5 m apart) whose point lies within ``radius`` of each
    sensor, from an n × samples distance matrix; ``(1.0, 0.0)`` when no
    sample is in range.  The exact window must contain it, each end
    within one grid step (:func:`sampling_step`).
    """
    xy = np.atleast_2d(np.asarray(xy, dtype=np.float64))
    samples = min(int(path.length * 2) + 2, 200_001)
    grid = np.linspace(0.0, path.length, samples)
    pts = path.point_at(grid)
    d = np.hypot(xy[:, None, 0] - pts[None, :, 0], xy[:, None, 1] - pts[None, :, 1])
    within = d <= radius
    any_within = within.any(axis=1)
    first = np.argmax(within, axis=1)
    last = samples - 1 - np.argmax(within[:, ::-1], axis=1)
    lo = np.where(any_within, grid[first], 1.0)
    hi = np.where(any_within, grid[last], 0.0)
    return lo, hi


def sampling_step(path) -> float:
    """Grid spacing of :func:`sampled_coverage_window` on ``path``."""
    samples = min(int(path.length * 2) + 2, 200_001)
    return path.length / (samples - 1)


# ----------------------------------------------------------------------
# Harvest: one window, one sensor at a time
# ----------------------------------------------------------------------
def energy_density_reference(
    profile: SolarDayProfile, t_start: float, t_end: float, resolution: float = 60.0
) -> float:
    """Reference for one window of :meth:`SolarDayProfile.energy_density`:
    ``np.trapezoid`` over this window's own ``np.linspace`` grid."""
    if t_end < t_start:
        raise ValueError(f"t_end {t_end} < t_start {t_start}")
    if t_end == t_start:
        return 0.0
    n = max(int(np.ceil((t_end - t_start) / resolution)), 1) + 1
    grid = np.linspace(t_start, t_end, n)
    return float(np.trapezoid(profile.power_density(grid), grid))


def initial_charges_reference(config: ScenarioConfig, seed: Optional[int]) -> np.ndarray:
    """Reference for a scenario's initial battery charges: one solar
    integral per sensor over its own accumulation window."""
    lo, hi = config.accumulation_hours
    hours = (
        RngStream.from_seed(seed).child("energy").generator.uniform(
            lo, hi, size=config.num_sensors
        )
    )
    area = config.panel_area_mm2
    noon = 12.0 * 3600.0
    if config.weather == "none":
        mean_power = (
            energy_density_reference(sunny_profile(), 0.0, 48 * 3600.0) * area / (48 * 3600.0)
        )
        charges = hours * 3600.0 * mean_power
    else:
        profile = sunny_profile() if config.weather == "sunny" else cloudy_profile(seed=0)
        charges = np.array(
            [energy_density_reference(profile, noon - h * 3600.0, noon) * area for h in hours]
        )
    return np.minimum(charges, config.battery_capacity)


class Battery:
    """One node's bounded energy store (joules): ``withdraw`` then
    ``deposit`` is ``P_{j+1} = min(P_j + Q_j − O_j, B)`` (Section II.B),
    with every check on plain floats."""

    def __init__(self, capacity: float, initial_charge: float = 0.0):
        if not math.isfinite(capacity) or capacity <= 0:
            raise ValueError(f"capacity must be a positive finite number, got {capacity!r}")
        if not math.isfinite(initial_charge) or initial_charge < 0:
            raise ValueError(
                f"initial_charge must be a non-negative finite number, got {initial_charge!r}"
            )
        if initial_charge > capacity + 1e-9:
            raise ValueError(f"initial_charge {initial_charge} exceeds capacity {capacity}")
        self.capacity = float(capacity)
        self.charge = min(float(initial_charge), self.capacity)

    def deposit(self, energy: float) -> float:
        """Add ``energy``; returns the amount stored (the rest spills)."""
        if not math.isfinite(energy) or energy < 0:
            raise ValueError(f"energy must be a non-negative finite number, got {energy!r}")
        stored = min(energy, self.capacity - self.charge)
        self.charge += stored
        return stored

    def withdraw(self, energy: float) -> None:
        """Draw ``energy``; raises if it exceeds the charge by > 1e-9."""
        if not math.isfinite(energy) or energy < 0:
            raise ValueError(f"energy must be a non-negative finite number, got {energy!r}")
        if energy > self.charge + 1e-9:
            raise ValueError(f"withdraw {energy} J exceeds stored charge {self.charge} J")
        self.charge = max(self.charge - energy, 0.0)


def simulate_tours_reference(
    scenario, algorithm, num_tours: int, rest_time: float = 0.0
) -> List[Dict[str, object]]:
    """Reference for ``simulate_tours``: one :class:`Battery` per node,
    started from ``scenario.network.charges()``.  Each tour's energy
    update debits and credits one battery at a time, integrating each
    node's harvest on its own, and each tour's budgets are read from the
    batteries directly (P(v) = P_j(v)), not through ``Scenario.instance``.
    Leaves ``scenario`` untouched; returns per tour the budgets, the
    collected bits, the spent/harvested/spilled arrays and the charges
    after the update.
    """
    network = scenario.network
    batteries = [Battery(network.capacity, c) for c in network.charges().tolist()]
    tours = []
    duration = scenario.trajectory.tour_duration
    for j in range(num_tours):
        start = scenario.config.start_time + j * (duration + rest_time)
        charges = [battery.charge for battery in batteries]
        instance = DataCollectionInstance.from_network(
            network, scenario.trajectory, scenario.rate_table, charges
        )
        allocation, _messages = algorithm.run(instance, scenario.gamma)
        spent = allocation.energy_spent(instance)
        harvested = np.zeros(instance.num_sensors)
        spilled = np.zeros(instance.num_sensors)
        for i, battery in enumerate(batteries):
            battery.withdraw(min(float(spent[i]), battery.charge))
            gain = 0.0
            if network.harvester is not None:
                gain = (
                    energy_density_reference(
                        network.harvester.profile, start, start + duration + rest_time
                    )
                    * network.harvester.panel_area_mm2
                )
            harvested[i] = gain
            stored = battery.deposit(gain)
            spilled[i] = gain - stored
        tours.append(
            {
                "budgets": np.array(instance.budgets_array()),
                "collected_bits": allocation.collected_bits(instance),
                "energy_spent": spent,
                "energy_harvested": harvested,
                "energy_spilled": spilled,
                "charges": np.array([battery.charge for battery in batteries]),
            }
        )
    return tours


# ----------------------------------------------------------------------
# Matching: successive-shortest-path min-cost flow
# ----------------------------------------------------------------------
_INF = float("inf")
#: Paths costlier than -_COST_EPS are considered non-improving.
_COST_EPS = 1e-9


class MinCostFlow:
    """A directed flow network solved by successive shortest paths.

    Nodes are integers ``0 .. num_nodes-1``; :meth:`add_edge` also
    creates the residual reverse edge.  Initial potentials come from one
    Bellman–Ford (SPFA) pass, so negative costs (negated profits) are
    exact; every augmentation then runs Dijkstra on reduced costs.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        self._head: List[List[int]] = [[] for _ in range(num_nodes)]
        self._to: List[int] = []
        self._cap: List[float] = []
        self._cost: List[float] = []

    def add_edge(self, u: int, v: int, capacity: float, cost: float) -> int:
        """Add ``u → v``; returns its id (``id ^ 1`` is the reverse edge)."""
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ValueError(f"edge ({u}, {v}) outside node range")
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        eid = len(self._to)
        self._head[u].append(eid)
        self._to.append(v)
        self._cap.append(float(capacity))
        self._cost.append(float(cost))
        self._head[v].append(eid + 1)
        self._to.append(u)
        self._cap.append(0.0)
        self._cost.append(-float(cost))
        return eid

    def flow_on(self, edge_id: int) -> float:
        """Current flow on a forward edge (= residual cap of its twin)."""
        if edge_id % 2 != 0:
            raise ValueError("flow_on expects a forward edge id")
        return self._cap[edge_id ^ 1]

    def _initial_potentials(self, source: int) -> List[float]:
        """SPFA distances from ``source`` over positive-capacity edges."""
        dist = [_INF] * self.num_nodes
        dist[source] = 0.0
        in_queue = [False] * self.num_nodes
        queue: deque = deque([source])
        in_queue[source] = True
        relaxations = 0
        limit = self.num_nodes * len(self._to) + 1
        while queue:
            u = queue.popleft()
            in_queue[u] = False
            for eid in self._head[u]:
                if self._cap[eid] <= 0:
                    continue
                v = self._to[eid]
                nd = dist[u] + self._cost[eid]
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    relaxations += 1
                    if relaxations > limit:
                        raise RuntimeError("negative cycle detected in flow network")
                    if not in_queue[v]:
                        queue.append(v)
                        in_queue[v] = True
        return dist

    def _dijkstra(
        self, source: int, potentials: List[float]
    ) -> Tuple[List[float], List[int]]:
        """Shortest reduced-cost distances + predecessor edge ids."""
        dist = [_INF] * self.num_nodes
        pred_edge = [-1] * self.num_nodes
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        visited = [False] * self.num_nodes
        while heap:
            d, u = heapq.heappop(heap)
            if visited[u]:
                continue
            visited[u] = True
            for eid in self._head[u]:
                if self._cap[eid] <= 0:
                    continue
                v = self._to[eid]
                if visited[v]:
                    continue
                # Reduced costs are >= 0 up to rounding; clamp tiny noise.
                reduced = max(self._cost[eid] + potentials[u] - potentials[v], 0.0)
                if d + reduced < dist[v] - 1e-15:
                    dist[v] = d + reduced
                    pred_edge[v] = eid
                    heapq.heappush(heap, (dist[v], v))
        return dist, pred_edge

    def solve(
        self,
        source: int,
        sink: int,
        max_flow: Optional[float] = None,
        only_negative_paths: bool = False,
    ) -> Tuple[float, float]:
        """Push flow from ``source`` to ``sink``; returns ``(flow, cost)``.

        ``max_flow`` caps the volume (default: saturate).
        ``only_negative_paths`` stops at the first augmenting path of
        non-negative true cost — the stopping rule that turns min-cost
        flow into *maximum-weight* (not maximum-cardinality) matching.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        potentials = self._initial_potentials(source)
        if potentials[sink] == _INF:
            return 0.0, 0.0
        # Unreachable nodes keep potential 0; they can never be on a path.
        potentials = [p if p != _INF else 0.0 for p in potentials]
        total_flow = 0.0
        total_cost = 0.0
        remaining = _INF if max_flow is None else float(max_flow)
        while remaining > 0:
            dist, pred_edge = self._dijkstra(source, potentials)
            if dist[sink] == _INF:
                break
            # True path cost = reduced distance + potential difference.
            path_cost = dist[sink] + potentials[sink] - potentials[source]
            if only_negative_paths and path_cost >= -_COST_EPS:
                break
            path = []
            v = sink
            while v != source:
                path.append(pred_edge[v])
                v = self._to[pred_edge[v] ^ 1]
            bottleneck = min([remaining] + [self._cap[eid] for eid in path])
            for eid in path:
                self._cap[eid] -= bottleneck
                self._cap[eid ^ 1] += bottleneck
            total_flow += bottleneck
            total_cost += bottleneck * path_cost
            remaining -= bottleneck
            # Johnson update keeps reduced costs non-negative.
            potentials = [
                p + d if d != _INF else p for p, d in zip(potentials, dist)
            ]
        return total_flow, total_cost


def mcmf_b_matching(
    edges: Sequence[Tuple[int, int, float]],
    left_capacities: Sequence[int],
    num_right: int,
) -> MatchingResult:
    """Reference for :func:`repro.core.matching.max_weight_b_matching`.

    Min-cost flow on source → left ``i`` (capacity ``c_i``) → right
    ``j`` (one unit per edge, cost ``-w``) → sink (capacity 1), pushing
    only while a path still gains weight.  Parallel and non-positive
    edges need no preprocessing: the right→sink unit admits only the
    heaviest parallel edge, and a path of non-negative cost never runs.
    """
    num_left = len(left_capacities)
    source = num_left + num_right
    sink = source + 1
    net = MinCostFlow(sink + 1)
    for i, cap in enumerate(left_capacities):
        if cap > 0:
            net.add_edge(source, i, float(cap), 0.0)
    edge_ids = [
        net.add_edge(int(u), num_left + int(v), 1.0, -float(w)) for u, v, w in edges
    ]
    for j in range(num_right):
        net.add_edge(num_left + j, sink, 1.0, 0.0)
    net.solve(source, sink, only_negative_paths=True)
    pairs = []
    weight = 0.0
    for (u, v, w), eid in zip(edges, edge_ids):
        if net.flow_on(eid) > 0.5:
            pairs.append((int(u), int(v)))
            weight += float(w)
    return MatchingResult(tuple(sorted(pairs)), weight)


def lsa_b_matching(
    edges: Sequence[Tuple[int, int, float]],
    left_capacities: Sequence[int],
    num_right: int,
) -> MatchingResult:
    """Second reference for :func:`repro.core.matching.max_weight_b_matching`.

    Left node ``i`` becomes ``c_i`` unit copies (never more than its
    number of distinct neighbours), each carrying the heaviest edge to
    every neighbour; scipy's ``linear_sum_assignment`` then maximises
    over the dense copies × right matrix.  Zero entries (absent or
    non-positive edges) are dropped from the answer.
    """
    from scipy.optimize import linear_sum_assignment

    heaviest: Dict[Tuple[int, int], float] = {}
    for u, v, w in edges:
        key = (int(u), int(v))
        heaviest[key] = max(heaviest.get(key, 0.0), float(w))
    neighbours: Dict[int, List[Tuple[int, float]]] = {}
    for (u, v), w in heaviest.items():
        neighbours.setdefault(u, []).append((v, w))
    copy_owner: List[int] = []
    for i, cap in enumerate(left_capacities):
        copy_owner.extend([i] * min(int(cap), len(neighbours.get(i, []))))
    if not copy_owner:
        return MatchingResult((), 0.0)
    dense = np.zeros((len(copy_owner), num_right))
    for row, owner in enumerate(copy_owner):
        for v, w in neighbours[owner]:
            dense[row, v] = w
    rows, cols = linear_sum_assignment(dense, maximize=True)
    pairs = []
    weight = 0.0
    for r, c in zip(rows.tolist(), cols.tolist()):
        if dense[r, c] > 0.0:
            pairs.append((copy_owner[r], c))
            weight += float(dense[r, c])
    return MatchingResult(tuple(sorted(pairs)), weight)


# ----------------------------------------------------------------------
# Matching: the b-matching LP through linprog
# ----------------------------------------------------------------------
def linprog_b_matching(
    edges: Sequence[Tuple[int, int, float]],
    left_capacities: Sequence[int],
    num_right: int,
) -> MatchingResult:
    """LP reference for :func:`repro.core.matching.max_weight_b_matching`.

    The b-matching LP through ``linprog(method="highs-ds")``, the engine
    before the sparse assignment: the edges read one tuple at a time,
    deduplicated (heaviest parallel edge kept) and sorted by ``(left,
    right)``, the constraint matrix assembled as COO and converted to
    CSR.  Same validation, same result.  Never recorded on a registry.
    """
    caps = np.asarray(left_capacities, dtype=np.int64)
    if caps.ndim != 1:
        raise ValueError("left_capacities must be 1-D")
    if np.any(caps < 0):
        raise ValueError("left capacities must be >= 0")
    if num_right < 0:
        raise ValueError("num_right must be >= 0")
    if len(edges) == 0:
        return MatchingResult((), 0.0)
    arr = np.asarray([(u, v, w) for (u, v, w) in edges], dtype=np.float64)
    u = arr[:, 0].astype(np.int64)
    v = arr[:, 1].astype(np.int64)
    w = arr[:, 2]
    if np.any(u < 0) or np.any(u >= caps.size):
        raise ValueError("edge left endpoint out of range")
    if np.any(v < 0) or np.any(v >= num_right):
        raise ValueError("edge right endpoint out of range")
    if not np.all(np.isfinite(w)):
        raise ValueError("edge weights must be finite")
    keep = w > 1e-12
    u, v, w = u[keep], v[keep], w[keep]
    if u.size == 0:
        return MatchingResult((), 0.0)

    key = u * np.int64(num_right) + v
    order = np.lexsort((-w, key))
    key_sorted = key[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    sel = order[first]
    u, v, w = u[sel], v[sel], w[sel]

    num_left = caps.size
    num_edges = u.size
    rows = np.concatenate([v, num_right + u])
    cols = np.concatenate([np.arange(num_edges), np.arange(num_edges)])
    data = np.ones(2 * num_edges)
    a_ub = coo_matrix(
        (data, (rows, cols)), shape=(num_right + num_left, num_edges)
    ).tocsr()
    b_ub = np.concatenate([np.ones(num_right), caps.astype(np.float64)])
    res = linprog(
        c=-w,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs-ds",
    )
    if not res.success:
        raise RuntimeError(f"b-matching LP failed: {res.message}")
    x = res.x
    chosen = x > 0.5
    frac = np.abs(x - np.round(x)).max() if x.size else 0.0
    if frac > 1e-6:
        raise RuntimeError(f"LP returned a fractional vertex (max frac {frac:.2e})")
    pairs = tuple(zip(u[chosen].tolist(), v[chosen].tolist()))
    weight = float(w[chosen].sum())
    return MatchingResult(pairs, weight)


def fixed_power_of_reference(instance: DataCollectionInstance) -> float:
    """Reference for :func:`repro.core.offline_maxmatch.fixed_power_of`.

    Scans every in-range (rate > 0) slot sensor by sensor, each sensor's
    distinct powers ascending: the first becomes the reference, and the
    first one not within ``_POWER_RTOL`` of it raises.
    """
    power: Optional[float] = None
    for data in sensor_records(instance):
        if data.window is None:
            continue
        active = data.powers[data.rates > 0]
        for p in np.unique(active):
            if power is None:
                power = float(p)
            elif not np.isclose(p, power, rtol=_POWER_RTOL, atol=0.0):
                raise ValueError(
                    f"instance is not single-power: found {power} W and {p} W"
                )
    if power is None:
        raise ValueError("instance has no transmittable (rate > 0) slot at all")
    return power


# ----------------------------------------------------------------------
# Instance, restriction and GAP reduction: one object per sensor
# ----------------------------------------------------------------------
_ANCHOR_OFFSETS = {"midpoint": 0.5, "start": 0.0, "end": 1.0}


@dataclass
class InstanceReference:
    """An instance held as one window and one :class:`SensorSlotData`
    per sensor, with the accessors of
    :class:`~repro.core.instance.DataCollectionInstance` the equivalence
    tests compare."""

    num_slots: int
    slot_duration: float
    windows: List[Optional[SlotInterval]]
    sensors: List[SensorSlotData]

    @property
    def num_sensors(self) -> int:
        return len(self.sensors)

    def window_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        starts = [0 if w is None else w.start for w in self.windows]
        ends = [-1 if w is None else w.end for w in self.windows]
        return np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)

    def budgets_array(self) -> np.ndarray:
        return np.array([s.budget for s in self.sensors], dtype=np.float64)

    def flat_pairs(self) -> FlatPairs:
        """Flat pairs concatenated from the per-sensor records."""
        sensor: List[int] = []
        slot: List[int] = []
        offsets = [0]
        for i, data in enumerate(self.sensors):
            for j in ([] if data.window is None else data.window):
                sensor.append(i)
                slot.append(j)
            offsets.append(offsets[-1] + data.num_slots)
        rates = np.concatenate([np.zeros(0), *(s.rates for s in self.sensors)])
        powers = np.concatenate([np.zeros(0), *(s.powers for s in self.sensors)])
        return FlatPairs(
            sensor=np.array(sensor, dtype=np.int64),
            slot=np.array(slot, dtype=np.int64),
            rates=rates,
            powers=powers,
            profits=rates * self.slot_duration,
            costs=powers * self.slot_duration,
            offsets=np.array(offsets, dtype=np.int64),
        )

    def sensor_order(self) -> List[int]:
        """Ascending (start, end, id); unreachable sensors last."""
        last = self.num_slots + 1
        return sorted(
            range(self.num_sensors),
            key=lambda i: (last, last, i)
            if self.windows[i] is None
            else (self.windows[i].start, self.windows[i].end, i),
        )

    def slot_competitors(self, slot: int) -> List[int]:
        return [i for i, w in enumerate(self.windows) if w is not None and slot in w]


def instance_reference(network, trajectory, rate_table, budgets) -> InstanceReference:
    """Reference for
    :meth:`~repro.core.instance.DataCollectionInstance.from_network`:
    each sensor's window ``A(v)`` as a :class:`SlotInterval` (or
    ``None``), then its rates and powers over that window, one sensor at
    a time."""
    positions = np.atleast_2d(np.asarray(network.positions, dtype=np.float64))
    budgets = np.maximum(np.asarray(budgets, dtype=np.float64), 0.0).tolist()
    lo, hi = trajectory.path.coverage_window(positions, rate_table.max_range)
    offset = _ANCHOR_OFFSETS[trajectory.anchor]
    step = trajectory.slot_length_m
    windows: List[Optional[SlotInterval]] = []
    sensors: List[SensorSlotData] = []
    for i, (lo_i, hi_i) in enumerate(zip(lo.tolist(), hi.tolist())):
        window = None
        if lo_i <= hi_i:
            # The anchor arc of slot j is (j + offset) * step.
            first = max(math.ceil(lo_i / step - offset - 1e-12), 0)
            last = min(math.floor(hi_i / step - offset + 1e-12), trajectory.num_slots - 1)
            if first <= last:
                window = SlotInterval(first, last)
        windows.append(window)
        if window is None:
            sensors.append(SensorSlotData(None, np.zeros(0), np.zeros(0), budgets[i]))
            continue
        points = np.atleast_2d(trajectory.path.point_at(trajectory.arc_at_slot(window.slots())))
        dists = np.hypot(positions[i, 0] - points[:, 0], positions[i, 1] - points[:, 1])
        sensors.append(
            SensorSlotData(
                window,
                np.asarray(rate_table.rate_at(dists), dtype=np.float64),
                np.asarray(rate_table.power_at(dists), dtype=np.float64),
                budgets[i],
            )
        )
    return InstanceReference(
        trajectory.num_slots, float(trajectory.slot_duration), windows, sensors
    )


def restrict_reference(
    instance,
    interval: SlotInterval,
    budgets: Optional[np.ndarray] = None,
    sensor_ids: Optional[Sequence[int]] = None,
) -> Tuple[DataCollectionInstance, List[int]]:
    """Reference for
    :meth:`~repro.core.instance.DataCollectionInstance.restrict`: one
    clipped :class:`SensorSlotData` per surviving sensor, handed to
    :func:`instance_from_records`."""
    if interval.start < 0 or interval.end >= instance.num_slots:
        raise ValueError(f"interval {interval} outside instance horizon")
    candidates = range(instance.num_sensors) if sensor_ids is None else sensor_ids
    subs: List[SensorSlotData] = []
    parents: List[int] = []
    for i in candidates:
        data = sensor_record(instance, i)
        if data.window is None:
            continue
        inter = data.window.intersection(interval)
        if inter is None:
            continue
        lo = inter.start - data.window.start
        hi = inter.end - data.window.start
        budget = float(budgets[i]) if budgets is not None else data.budget
        subs.append(
            SensorSlotData(
                inter.shift(-interval.start),
                data.rates[lo : hi + 1],
                data.powers[lo : hi + 1],
                max(budget, 0.0),
            )
        )
        parents.append(i)
    return instance_from_records(len(interval), instance.slot_duration, subs), parents


@dataclass
class GapReference:
    """One :class:`GapBin` per sensor and the occupancy index of the
    flat GAP form: entry ``k`` is item ``occ_item[k]`` at position
    ``occ_pos[k]`` of bin ``occ_bin[k]``, flat index ``occ_flat[k]``;
    item ``j``'s entries span ``[occ_bounds[j], occ_bounds[j+1])``."""

    bins: List[GapBin]
    offsets: np.ndarray
    occ_item: np.ndarray
    occ_bin: np.ndarray
    occ_pos: np.ndarray
    occ_flat: np.ndarray
    occ_bounds: np.ndarray
    num_items: int


def gap_reference(instance) -> GapReference:
    """Reference for :func:`repro.core.offline_appro.dcmp_to_gap` on an
    instance or an :class:`InstanceReference` (through
    :func:`sensor_records`): bin ``i`` holds sensor ``i``'s window slots, profits ``r·τ``,
    weights ``P·τ`` and capacity ``P(v_i)``; the occupancy index is
    built item by item, bins and positions ascending."""
    tau = instance.slot_duration
    bins = [
        GapBin(data.budget, data.slot_indices(), data.rates * tau, data.powers * tau)
        for data in sensor_records(instance)
    ]
    offsets = [0]
    entries: Dict[int, List[Tuple[int, int, int]]] = {}
    for b, gap_bin in enumerate(bins):
        for pos, item in enumerate(gap_bin.items.tolist()):
            entries.setdefault(item, []).append((b, pos, offsets[-1] + pos))
        offsets.append(offsets[-1] + gap_bin.items.size)
    num_items = max(entries) + 1 if entries else 0
    occ = [(item, *entry) for item in range(num_items) for entry in entries.get(item, [])]
    bounds = [0]
    for item in range(num_items):
        bounds.append(bounds[-1] + len(entries.get(item, [])))

    def column(k: int) -> np.ndarray:
        return np.array([row[k] for row in occ], dtype=np.int64)

    return GapReference(
        bins=bins,
        offsets=np.array(offsets, dtype=np.int64),
        occ_item=column(0),
        occ_bin=column(1),
        occ_pos=column(2),
        occ_flat=column(3),
        occ_bounds=np.array(bounds, dtype=np.int64),
        num_items=num_items,
    )


# ----------------------------------------------------------------------
# Online framework: the per-slot interval merge
# ----------------------------------------------------------------------
def run_online_reference(
    instance: DataCollectionInstance,
    gamma: int,
    scheduler: IntervalScheduler,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
) -> OnlineResult:
    """Reference for :func:`repro.online.framework.run_online` (without
    its registry, phases and logging): each interval's schedule is
    merged slot by slot."""
    loss_rng = np.random.default_rng(loss_seed)
    t = instance.num_slots
    n = instance.num_sensors
    residual = np.array([instance.budget_of(i) for i in range(n)], dtype=np.float64)
    tour_owner = np.full(t, -1, dtype=np.int64)
    log = MessageLog()
    records: List[IntervalRecord] = []
    for j in range(int(np.ceil(t / gamma))):
        interval = SlotInterval(j * gamma, min((j + 1) * gamma, t) - 1)
        in_range = [int(i) for i in instance.slot_competitors(interval.start)]
        if loss_rate > 0.0 and in_range:
            heard = loss_rng.random(len(in_range)) >= loss_rate
            registered = [s for s, ok in zip(in_range, heard) if ok]
        else:
            registered = in_range
        log.record_broadcast(MessageType.PROBE, registered)
        if not registered:
            records.append(IntervalRecord(j, interval, [], 0, 0.0))
            continue
        for sensor in registered:
            log.record_ack(sensor)
        sub_instance, parents = restrict_reference(
            instance, interval, budgets=residual, sensor_ids=registered
        )
        sub_allocation = scheduler.schedule(sub_instance)
        sub_allocation.check_feasible(sub_instance)
        log.record_broadcast(MessageType.SCHEDULE, registered)
        bits = 0.0
        assigned = 0
        for local_slot, local_sensor in enumerate(sub_allocation.slot_owner):
            if local_sensor == -1:
                continue
            parent = parents[int(local_sensor)]
            global_slot = interval.start + local_slot
            residual[parent] -= instance.cost(parent, global_slot)
            bits += instance.profit(parent, global_slot)
            assigned += 1
            if tour_owner[global_slot] != -1:
                raise AssertionError(f"slot {global_slot} scheduled twice")
            tour_owner[global_slot] = parent
        log.record_broadcast(MessageType.FINISH, registered)
        records.append(IntervalRecord(j, interval, registered, assigned, bits))
    allocation = Allocation(tour_owner)
    return OnlineResult(
        allocation=allocation,
        collected_bits=allocation.collected_bits(instance),
        messages=log,
        intervals=records,
        residual_budgets=residual,
    )


# ----------------------------------------------------------------------
# Matching: the paper's literal node-copies graph G′ (Section VI)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CopiesGraph:
    """The explicit bipartite graph G′.

    ``copy_owner[c]`` is the sensor owning copy node ``c``;
    ``copy_counts[i]`` is ``n_i'``; ``edges`` holds ``(copy, slot,
    weight)`` — the paper's ``E'``, one edge copy per node copy.
    """

    copy_owner: Tuple[int, ...]
    copy_counts: Tuple[int, ...]
    edges: Tuple[Tuple[int, int, float], ...]
    num_slots: int

    @property
    def num_copies(self) -> int:
        """Total number of copy nodes ``Σ n_i'``."""
        return len(self.copy_owner)


def build_copies_graph(
    instance: DataCollectionInstance,
    fixed_power: Optional[float] = None,
    gamma: Optional[int] = None,
) -> CopiesGraph:
    """Construct G′ exactly as Section VI describes.

    Sensor ``i`` gets ``n_i' = min(⌊R/(r_s·τ)⌋, |[i_s', i_e']|,
    ⌊P(v_i)/(P'·τ)⌋)`` copies, each with an edge of weight ``r_{i,j}·τ``
    to every positive-rate slot of its window.  ``gamma`` is the
    ``⌊R/(r_s·τ)⌋`` term: the offline whole-tour reduction has no
    interval cap, so ``None`` omits it (Γ = ∞).
    """
    if fixed_power is None:
        fixed_power = fixed_power_of(instance)
    tau = instance.slot_duration
    copy_owner: List[int] = []
    copy_counts: List[int] = []
    edges: List[Tuple[int, int, float]] = []
    for i, data in enumerate(sensor_records(instance)):
        count = 0
        if data.window is not None:
            affordable = math.floor(data.budget / (fixed_power * tau) + 1e-12)
            count = max(min(data.num_slots, affordable), 0)
            if gamma is not None:
                count = min(count, gamma)
        copy_counts.append(count)
        slots = data.slot_indices().tolist()
        rates = data.rates.tolist()
        for _ in range(count):
            copy = len(copy_owner)
            copy_owner.append(i)
            for slot, rate in zip(slots, rates):
                if rate > 0:
                    edges.append((copy, slot, rate * tau))
    return CopiesGraph(
        copy_owner=tuple(copy_owner),
        copy_counts=tuple(copy_counts),
        edges=tuple(edges),
        num_slots=instance.num_slots,
    )


def maxmatch_via_copies(
    instance: DataCollectionInstance, fixed_power: Optional[float] = None
) -> Allocation:
    """``Offline_MaxMatch`` through the literal G′: copies are
    unit-capacity left nodes, matched by the min-cost-flow oracle."""
    graph = build_copies_graph(instance, fixed_power)
    result = mcmf_b_matching(graph.edges, [1] * graph.num_copies, graph.num_slots)
    owner = np.full(instance.num_slots, UNASSIGNED, dtype=np.int64)
    for copy, slot in result.pairs:
        owner[slot] = graph.copy_owner[copy]
    allocation = Allocation(owner)
    allocation.check_feasible(instance)
    return allocation


# ----------------------------------------------------------------------
# Fuzzer relations and shrink passes: one record per sensor
# ----------------------------------------------------------------------
def _rebuild(instance, records: Sequence[SensorSlotData], num_slots: Optional[int] = None):
    t = instance.num_slots if num_slots is None else num_slots
    return instance_from_records(t, instance.slot_duration, records)


def reverse_slots_reference(instance: DataCollectionInstance) -> DataCollectionInstance:
    """Reference for :func:`repro.verify.fuzz.reverse_slots`: each
    record's window mirrored and its arrays reversed."""
    t = instance.num_slots
    records = []
    for data in sensor_records(instance):
        if data.window is None:
            records.append(data)
            continue
        window = SlotInterval(t - 1 - data.window.end, t - 1 - data.window.start)
        records.append(
            SensorSlotData(window, data.rates[::-1].copy(), data.powers[::-1].copy(), data.budget)
        )
    return _rebuild(instance, records)


def relabel_sensors_reference(
    instance: DataCollectionInstance, permutation: Optional[Sequence[int]] = None
) -> DataCollectionInstance:
    """Reference for :func:`repro.verify.fuzz.relabel_sensors`: the
    records in permuted order (default: reversed)."""
    records = sensor_records(instance)
    if permutation is None:
        permutation = list(range(len(records)))[::-1]
    return _rebuild(instance, [records[i] for i in permutation])


def scale_profits_reference(
    instance: DataCollectionInstance, factor: float
) -> DataCollectionInstance:
    """Reference for :func:`repro.verify.fuzz.scale_profits`."""
    return _rebuild(
        instance,
        [
            SensorSlotData(d.window, d.rates * factor, d.powers.copy(), d.budget)
            for d in sensor_records(instance)
        ],
    )


def scale_energy_reference(
    instance: DataCollectionInstance, factor: float
) -> DataCollectionInstance:
    """Reference for :func:`repro.verify.fuzz.scale_energy`."""
    return _rebuild(
        instance,
        [
            SensorSlotData(d.window, d.rates.copy(), d.powers * factor, d.budget * factor)
            for d in sensor_records(instance)
        ],
    )


def _drop_sensor_reference(instance):
    records = sensor_records(instance)
    if len(records) <= 1:
        return
    for k in range(len(records)):
        yield _rebuild(instance, [d for i, d in enumerate(records) if i != k])


def _truncate_horizon_reference(instance):
    t = instance.num_slots
    if t <= 1:
        return
    for keep in (SlotInterval(0, t - 2), SlotInterval(1, t - 1)):
        records = []
        for data in sensor_records(instance):
            window = data.window
            inter = None if window is None else window.intersection(keep)
            if inter is None:
                records.append(SensorSlotData(None, np.zeros(0), np.zeros(0), data.budget))
                continue
            lo = inter.start - window.start
            hi = inter.end - window.start
            records.append(
                SensorSlotData(
                    inter.shift(-keep.start),
                    data.rates[lo : hi + 1].copy(),
                    data.powers[lo : hi + 1].copy(),
                    data.budget,
                )
            )
        yield _rebuild(instance, records, num_slots=t - 1)


def _narrow_window_reference(instance):
    records = sensor_records(instance)
    for k, data in enumerate(records):
        if data.window is None or len(data.window) <= 1:
            continue
        for window, sl in (
            (SlotInterval(data.window.start, data.window.end - 1), slice(0, -1)),
            (SlotInterval(data.window.start + 1, data.window.end), slice(1, None)),
        ):
            trimmed = list(records)
            trimmed[k] = SensorSlotData(
                window, data.rates[sl].copy(), data.powers[sl].copy(), data.budget
            )
            yield _rebuild(instance, trimmed)


def _round_reference(instance):
    records = []
    changed = False
    for data in sensor_records(instance):
        rates = np.round(data.rates)
        powers = np.round(data.powers, 2)
        budget = round(data.budget, 2)
        if (
            not np.array_equal(rates, data.rates)
            or not np.array_equal(powers, data.powers)
            or budget != data.budget
        ):
            changed = True
        records.append(SensorSlotData(data.window, rates, powers, budget))
    if changed:
        yield _rebuild(instance, records)


#: References for :mod:`repro.verify.shrink`'s passes, in its order:
#: drop a sensor, truncate the horizon, narrow a window, round.  Each
#: edits the records one sensor at a time and yields its candidates in
#: the order the shrinker tries them.
SHRINK_PASS_REFERENCES = (
    _drop_sensor_reference,
    _truncate_horizon_reference,
    _narrow_window_reference,
    _round_reference,
)
