"""0/1 knapsack solvers.

``Offline_Appro`` reduces the DCMP to a sequence of single-bin packings
(Section IV): per sensor, choose a subset of its available slots whose
energy cost fits the budget, maximising residual profit.  Any
``β``-approximation for knapsack yields a ``1/(1+β)``-approximation for
the whole problem, so the solver choice is a first-class knob:

* :func:`knapsack_greedy` — density greedy vs best single item, β = 2
  (solution ≥ OPT/2), ``O(n log n)``;
* :func:`knapsack_few_weights` — **exact** (β = 1) in
  ``O(∏ (n_k + 1))`` over the distinct weight classes; the paper's
  4-level radio table induces ≤ 4 classes, making this the default;
* :func:`knapsack_fptas` — Lawler-style profit scaling, β = 1 + ε,
  matching the paper's ``1/(2+ε)`` overall guarantee.

All solvers accept float profits/weights, ignore items with
non-positive profit (the local-ratio residuals can go negative), and
return a :class:`KnapsackResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_registry, phase

__all__ = [
    "KnapsackResult",
    "knapsack_greedy",
    "knapsack_few_weights",
    "knapsack_fptas",
    "solve_knapsack",
    "list_solver",
]

#: Enumerations at most this large run as a plain-float odometer loop
#: inside :func:`knapsack_few_weights`; larger ones vectorise.
_SCALAR_ENUM_CUTOFF = 32

#: :func:`knapsack_few_weights` raises rather than enumerate more count
#: vectors than this.
_MAX_COMBINATIONS = 2_000_000


@dataclass(frozen=True)
class KnapsackResult:
    """Outcome of a knapsack solve.

    Attributes
    ----------
    selected:
        Indices of chosen items (into the caller's arrays), ascending.
    profit / weight:
        Totals of the selection.
    """

    selected: Tuple[int, ...]
    profit: float
    weight: float

    @classmethod
    def empty(cls) -> "KnapsackResult":
        return cls((), 0.0, 0.0)


def _clean(
    profits: np.ndarray, weights: np.ndarray, capacity: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filter to items worth considering: positive profit, fits alone.

    Returns (indices, profits, weights) over the surviving items.
    """
    profits = np.asarray(profits, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if profits.shape != weights.shape or profits.ndim != 1:
        raise ValueError(
            f"profits and weights must be equal-length 1-D, got {profits.shape}/{weights.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    keep = (profits > 0) & (weights <= capacity)
    idx = np.flatnonzero(keep)
    return idx, profits[idx], weights[idx]


def _result_from_lists(
    indices: List[int], profits: List[float], weights: List[float],
    chosen: List[int],
) -> KnapsackResult:
    """Assemble a result from *local* chosen positions.

    The totals are a plain loop in index order, which matches the scalar
    reference oracle bit for bit: ``np.sum`` accumulates pairwise, and
    ``sum()`` compensates on Python >= 3.12.
    """
    chosen = sorted(chosen)
    profit = 0.0
    weight = 0.0
    for k in chosen:
        profit += profits[k]
        weight += weights[k]
    return KnapsackResult(tuple(indices[k] for k in chosen), profit, weight)


# ----------------------------------------------------------------------
# Greedy (beta = 2)
# ----------------------------------------------------------------------
def knapsack_greedy(
    profits: np.ndarray, weights: np.ndarray, capacity: float
) -> KnapsackResult:
    """Density greedy with the best-single-item fallback.

    Items are scanned in decreasing profit/weight density, packing every
    item that still fits; the result is the better of that packing and
    the single most profitable item.  Guarantees profit ≥ OPT/2.
    """
    idx, p, w = _clean(profits, weights, capacity)
    if idx.size == 0:
        return KnapsackResult.empty()
    with np.errstate(divide="ignore"):
        density = np.where(w > 0, p / np.where(w > 0, w, 1.0), np.inf)
    order = np.argsort(-density, kind="stable")
    # The pack loop is inherently sequential (each decision depends on
    # the running remainder); plain-float lists keep it cheap.
    w_list = w.tolist()
    p_list = p.tolist()
    chosen: List[int] = []
    remaining = float(capacity)
    total = 0.0
    for k in order.tolist():
        if w_list[k] <= remaining:
            chosen.append(k)
            remaining -= w_list[k]
            total += p_list[k]
    best_single = int(np.argmax(p))
    if p[best_single] > total:
        chosen = [best_single]
    return _result_from_lists(idx.tolist(), p_list, w_list, chosen)


# ----------------------------------------------------------------------
# Exact for few distinct weights (beta = 1)
# ----------------------------------------------------------------------
def knapsack_few_weights(
    profits: np.ndarray, weights: np.ndarray, capacity: float
) -> KnapsackResult:
    """Exact solver exploiting few distinct weight values.

    With ``m`` distinct weights, an optimal solution takes the top-``c_k``
    profits within each weight class for some count vector ``c``.  We
    enumerate counts over the ``m − 1`` classes with the smallest
    enumeration footprint and fill the remaining class greedily (taking
    the maximum affordable count of a single-weight class is always
    optimal since profits are positive).

    Raises ``ValueError`` on a negative weight, even one whose item would
    have been filtered, and if the enumeration would exceed
    ``_MAX_COMBINATIONS`` (2,000,000).  No caller falls back to an
    inexact solver then: Theorem 2's ½ assumes an exact knapsack.
    """
    profits = np.asarray(profits, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if profits.shape != weights.shape or profits.ndim != 1:
        raise ValueError(
            f"profits and weights must be equal-length 1-D, got {profits.shape}/{weights.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    return _result_from_lists(*_few_weights(profits.tolist(), weights.tolist(), capacity))


def _few_weights(
    p_all: List[float], w_all: List[float], capacity: float
) -> Tuple[List[int], List[float], List[float], List[int]]:
    """The body of :func:`knapsack_few_weights` on plain-float lists whose
    weights the caller has checked: ``(indices, profits, weights,
    chosen)`` over the items that survive the filter, ``chosen`` being
    local positions into them (any order)."""
    # The item sets here are tiny (a sensor's window is a few dozen
    # slots in ≤ 4 weight classes), so the filter and the whole solve
    # run on plain-float lists — the same IEEE double arithmetic as the
    # array form, without per-call array-allocation overhead.  NaNs fail
    # both keep-tests, exactly like the array comparisons they replace.
    # An item fits alone within the same 1e-12 slack the count
    # enumeration grants a whole packing, so a weight a rounding error
    # above the capacity is not dropped here.
    cap_slack = capacity + 1e-12
    idx_list: List[int] = []
    p_list: List[float] = []
    w_list: List[float] = []
    for k, w in enumerate(w_all):
        if p_all[k] > 0.0 and w <= cap_slack:
            idx_list.append(k)
            p_list.append(p_all[k])
            w_list.append(w)
    n = len(idx_list)
    if n == 0:
        return idx_list, p_list, w_list, []

    # Fast path: one distinct positive weight (the common shape once the
    # local-ratio residuals thin a bin out).  The optimum is simply the
    # top-``⌊capacity/w⌋`` profits — identical to what the general
    # machinery below reduces to when there is a single non-zero class.
    w0 = w_list[0]
    if w0 > 0.0 and (n == 1 or min(w_list) == max(w_list)):
        members = sorted(range(n), key=lambda k: -p_list[k])
        g_count = min(n, int(capacity / w0 + 1e-12))
        if g_count < 0:
            g_count = 0
        return idx_list, p_list, w_list, members[:g_count]

    # Group by weight (classes weight-ascending; members profit-desc
    # with ascending-index ties — identical ordering to a stable
    # per-class argsort).  Zero-weight positive-profit items are free:
    # always take them all.
    groups: Dict[float, List[int]] = {}
    for k in range(n):
        groups.setdefault(w_list[k], []).append(k)
    base_profit = 0.0
    base_chosen: List[int] = []
    classes_nz: List[Tuple[float, List[int], List[float]]] = []
    for weight_value in sorted(groups):
        members = sorted(groups[weight_value], key=lambda k: -p_list[k])
        prefix = [0.0]
        acc = 0.0
        for k in members:
            acc += p_list[k]
            prefix.append(acc)
        if weight_value == 0.0:
            base_profit += acc
            base_chosen.extend(members)
        else:
            classes_nz.append((weight_value, members, prefix))

    if not classes_nz:
        return idx_list, p_list, w_list, base_chosen

    # Enumerate every class except the one with the most members (the
    # greedy-filled class), keeping the search space minimal.
    sizes = [len(members) for _, members, _ in classes_nz]
    greedy_class = max(range(len(sizes)), key=sizes.__getitem__)
    enum_classes = [c for k, c in enumerate(classes_nz) if k != greedy_class]
    g_weight, g_members, g_prefix = classes_nz[greedy_class]
    g_size = len(g_members)

    # Cap per-class counts by what the budget alone allows, shrinking the
    # enumeration before it is materialised.
    limits = [
        min(len(members), int(capacity / weight_value + 1e-12))
        for weight_value, members, _ in enum_classes
    ]
    combos = 1
    for lim in limits:
        combos *= lim + 1
    if combos > _MAX_COMBINATIONS:
        raise ValueError(
            f"few-weights enumeration too large ({combos} > {_MAX_COMBINATIONS})"
        )

    # Enumerate count vectors in row-major flat order (first class
    # slowest, last fastest); ties on total profit keep the earliest
    # combination.  Small enumerations run as a plain-float odometer
    # loop (most GAP bins land here — per-call numpy overhead would
    # dominate); large ones fall through to the vectorised form.  Both
    # paths accumulate in the same class order, so they agree bit for
    # bit.
    enum_weights = [c[0] for c in enum_classes]
    enum_prefixes = [c[2] for c in enum_classes]
    if combos > _SCALAR_ENUM_CUTOFF:
        # Broadcasted outer sums over one axis per class: element
        # [c_0, ..., c_{m-1}] accumulates class contributions in the
        # same left-associative order as the flat form, and C-order
        # flattening reproduces the flat enumeration order exactly
        # (first class slowest), so ties resolve identically.
        shape = tuple(lim + 1 for lim in limits)
        rank = len(shape)
        used_weight: Optional[np.ndarray] = None
        profit_acc: Optional[np.ndarray] = None
        for k, (lim, weight_value, prefix) in enumerate(
            zip(limits, enum_weights, enum_prefixes)
        ):
            axis = (1,) * k + (lim + 1,) + (1,) * (rank - 1 - k)
            class_weight = (
                np.arange(lim + 1, dtype=np.int64) * weight_value
            ).reshape(axis)
            # prefix may be longer than lim + 1 when the budget caps the
            # class count below its member count — only the reachable
            # head participates.
            class_profit = np.asarray(prefix[: lim + 1]).reshape(axis)
            used_weight = (
                class_weight if used_weight is None
                else used_weight + class_weight
            )
            profit_acc = (
                base_profit + class_profit if profit_acc is None
                else profit_acc + class_profit
            )
        g_count_arr = np.minimum(
            g_size,
            np.floor((capacity - used_weight) / g_weight + 1e-12).astype(np.int64),
        )
        np.maximum(g_count_arr, 0, out=g_count_arr)
        total = np.where(
            used_weight <= cap_slack,
            profit_acc + np.asarray(g_prefix)[g_count_arr],
            -np.inf,
        )
        best_flat = int(np.argmax(total))
        best_counts = [int(c) for c in np.unravel_index(best_flat, shape)]
        best_g = int(g_count_arr.reshape(-1)[best_flat])
    else:
        best_total = -math.inf
        best_counts = [0] * len(enum_classes)
        best_g = 0
        counts = [0] * len(enum_classes)
        last = len(counts) - 1
        while True:
            used_weight = 0.0
            profit_acc = base_profit
            for k in range(len(counts)):
                ct = counts[k]
                used_weight += ct * enum_weights[k]
                profit_acc += enum_prefixes[k][ct]
            if used_weight <= cap_slack:
                g_count = min(
                    g_size,
                    int(math.floor((capacity - used_weight) / g_weight + 1e-12)),
                )
                if g_count < 0:
                    g_count = 0
                total = profit_acc + g_prefix[g_count]
                if total > best_total:
                    best_total = total
                    best_counts = counts.copy()
                    best_g = g_count
            # Advance the odometer (last class fastest).
            pos = last
            while pos >= 0:
                if counts[pos] < limits[pos]:
                    counts[pos] += 1
                    break
                counts[pos] = 0
                pos -= 1
            if pos < 0:
                break

    chosen = list(base_chosen)
    for ct, (_, members, _) in zip(best_counts, enum_classes):
        chosen.extend(members[:ct])
    chosen.extend(g_members[:best_g])
    return idx_list, p_list, w_list, chosen


# ----------------------------------------------------------------------
# FPTAS (beta = 1 + eps)
# ----------------------------------------------------------------------
def knapsack_fptas(
    profits: np.ndarray,
    weights: np.ndarray,
    capacity: float,
    epsilon: float = 0.1,
) -> KnapsackResult:
    """Profit-scaling FPTAS (Lawler [13] style), ``profit ≥ OPT/(1+ε)``.

    Profits are scaled by ``K = ε · p_max / n`` and a min-weight-per-
    scaled-profit DP runs in ``O(n² · ⌈n/ε⌉)`` — the classic trade of a
    controlled profit loss for weight-independent pseudo-polynomiality.
    The DP rows are vectorised shifts, so the inner loop is NumPy-speed.
    """
    if not 0 < epsilon:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    idx, p, w = _clean(profits, weights, capacity)
    n = idx.size
    if n == 0:
        return KnapsackResult.empty()
    p_max = float(p.max())
    scale = epsilon * p_max / n
    q = np.floor(p / scale).astype(np.int64)
    q_total = int(q.sum())

    # min_weight[v] = minimal weight achieving scaled profit exactly v.
    inf = np.inf
    min_weight = np.full(q_total + 1, inf)
    min_weight[0] = 0.0
    take = np.zeros((n, q_total + 1), dtype=bool)
    for k in range(n):
        qk = int(q[k])
        if qk == 0:
            # A scaled-to-zero item can still be profitable; handled by a
            # greedy sweep afterwards.  Skipping keeps the DP exactness.
            continue
        shifted = np.full(q_total + 1, inf)
        shifted[qk:] = min_weight[:-qk] if qk > 0 else min_weight
        cand = shifted + w[k]
        better = cand < min_weight
        take[k] = better
        np.minimum(min_weight, cand, out=min_weight)

    feasible = np.flatnonzero(min_weight <= capacity + 1e-12)
    best_v = int(feasible.max())

    # Reconstruct by replaying decisions backwards.
    chosen: List[int] = []
    v = best_v
    for k in range(n - 1, -1, -1):
        if v > 0 and take[k, v]:
            chosen.append(k)
            v -= int(q[k])
    # v may be nonzero only if reconstruction failed — guard hard.
    if v != 0:
        raise AssertionError("FPTAS reconstruction mismatch")

    # Opportunistic improvement: pack scaled-to-zero items (and any other
    # leftovers) greedily into the remaining capacity.  Never hurts the
    # guarantee.
    used = set(chosen)
    remaining = float(capacity) - float(sum(w[k] for k in chosen))
    with np.errstate(divide="ignore"):
        density = np.where(w > 0, p / np.where(w > 0, w, 1.0), np.inf)
    for k in np.argsort(-density, kind="stable"):
        k = int(k)
        if k not in used and w[k] <= remaining:
            chosen.append(k)
            used.add(k)
            remaining -= float(w[k])
    return _result_from_lists(idx.tolist(), p.tolist(), w.tolist(), chosen)


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def _check_method(method: str) -> None:
    if method not in ("few_weights", "greedy", "fptas"):
        raise ValueError(f"unknown knapsack method {method!r}")


def solve_knapsack(
    profits: np.ndarray,
    weights: np.ndarray,
    capacity: float,
    method: str = "few_weights",
    epsilon: float = 0.1,
) -> KnapsackResult:
    """Solve a knapsack with the requested ``method``.

    ``method`` ∈ {"few_weights", "greedy", "fptas"}.  The default is the
    exact few-weights solver, which the paper's 4-level radio always
    allows; past its enumeration cap it raises ``ValueError``.

    Every call records to the :mod:`repro.obs` registry: ``knapsack.calls``
    and ``knapsack.items`` counters, a ``knapsack.solve`` timer, and a
    ``knapsack.method[<solver>]`` counter for the solver that answered.
    """
    _check_method(method)
    registry = get_registry()
    registry.inc("knapsack.calls")
    registry.inc("knapsack.items", float(np.asarray(profits).size))
    with phase("knapsack.solve"):
        if method == "few_weights":
            result = knapsack_few_weights(profits, weights, capacity)
        elif method == "greedy":
            result = knapsack_greedy(profits, weights, capacity)
        else:
            result = knapsack_fptas(profits, weights, capacity, epsilon=epsilon)
    registry.inc(f"knapsack.method[{method}]")
    return result


def list_solver(
    method: str = "few_weights", epsilon: float = 0.1
) -> Callable[[List[float], List[float], float], Sequence[int]]:
    """``method``'s solver for a caller that checks its weights once and
    records the counters itself, as ``Offline_Appro``'s local-ratio pass
    does: ``(profits, weights, capacity) -> selected`` on plain-float
    lists, ``selected`` being the indices :func:`solve_knapsack` selects,
    ascending.  It records nothing and times nothing."""
    _check_method(method)
    if method == "few_weights":

        def few_weights(profits, weights, capacity):
            idx, _, _, chosen = _few_weights(profits, weights, capacity)
            return [idx[k] for k in sorted(chosen)]

        return few_weights
    if method == "greedy":
        return lambda profits, weights, capacity: knapsack_greedy(
            profits, weights, capacity
        ).selected
    return lambda profits, weights, capacity: knapsack_fptas(
        profits, weights, capacity, epsilon=epsilon
    ).selected
