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

Every solver takes plain-float sequences ``(profits, weights,
capacity)``, checks them (equal lengths, no negative weight), ignores
items with non-positive profit (the local-ratio residuals can go
negative) and returns the selected indices, ascending.  The item sets
are tiny (a sensor's window is a few dozen slots), so the solvers run on
plain floats, all but the FPTAS's DP rows — the same IEEE double
arithmetic as array code, without per-call array overhead.
:func:`knapsack_solver` picks one by name.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "knapsack_greedy",
    "knapsack_few_weights",
    "knapsack_fptas",
    "knapsack_solver",
]

#: Enumerations at most this large run as a plain-float odometer loop
#: inside :func:`knapsack_few_weights`; larger ones vectorise.
_SCALAR_ENUM_CUTOFF = 32

#: :func:`knapsack_few_weights` raises rather than enumerate more count
#: vectors than this.
_MAX_COMBINATIONS = 2_000_000


def _check(profits: Sequence[float], weights: Sequence[float]) -> None:
    """Raise ``ValueError`` unless the lengths agree and no weight is
    negative (even one whose item the solver would filter out)."""
    if len(profits) != len(weights):
        raise ValueError(
            f"profits and weights must be equal-length 1-D, got "
            f"({len(profits)},)/({len(weights)},)"
        )
    lowest = min(weights, default=0.0)
    # min() returns a leading NaN whatever follows it; only then scan.
    if lowest < 0.0 or (lowest != lowest and any(w < 0.0 for w in weights)):
        raise ValueError("weights must be non-negative")


def _by_density(profits: List[float], weights: List[float]) -> List[int]:
    """Positions in decreasing profit/weight density, ties by position;
    a zero-weight item has infinite density."""
    density = [p / w if w > 0.0 else math.inf for p, w in zip(profits, weights)]
    return sorted(range(len(density)), key=lambda k: -density[k])


# ----------------------------------------------------------------------
# Greedy (beta = 2)
# ----------------------------------------------------------------------
def knapsack_greedy(
    profits: Sequence[float], weights: Sequence[float], capacity: float
) -> List[int]:
    """Density greedy with the best-single-item fallback.

    Items are scanned in decreasing profit/weight density, packing every
    item that still fits; the result is the better of that packing and
    the single most profitable item.  Guarantees profit ≥ OPT/2.
    """
    _check(profits, weights)
    idx = [k for k, (p, w) in enumerate(zip(profits, weights)) if p > 0.0 and w <= capacity]
    if not idx:
        return []
    p = [profits[k] for k in idx]
    w = [weights[k] for k in idx]
    chosen: List[int] = []
    remaining = float(capacity)
    total = 0.0
    for k in _by_density(p, w):
        if w[k] <= remaining:
            chosen.append(k)
            remaining -= w[k]
            total += p[k]
    best_single = max(range(len(p)), key=p.__getitem__)
    if p[best_single] > total:
        chosen = [best_single]
    return [idx[k] for k in sorted(chosen)]


# ----------------------------------------------------------------------
# Exact for few distinct weights (beta = 1)
# ----------------------------------------------------------------------
def knapsack_few_weights(
    profits: Sequence[float], weights: Sequence[float], capacity: float
) -> List[int]:
    """Exact solver exploiting few distinct weight values.

    With ``m`` distinct weights, an optimal solution takes the top-``c_k``
    profits within each weight class for some count vector ``c``.  We
    enumerate counts over the ``m − 1`` classes with the smallest
    enumeration footprint and fill the remaining class greedily (taking
    the maximum affordable count of a single-weight class is always
    optimal since profits are positive).

    Raises ``ValueError`` if the enumeration would exceed
    ``_MAX_COMBINATIONS`` (2,000,000).  No caller falls back to an
    inexact solver then: Theorem 2's ½ assumes an exact knapsack.
    """
    _check(profits, weights)
    # NaNs fail both keep-tests.  An item fits alone within the same
    # 1e-12 slack the count enumeration grants a whole packing, so a
    # weight a rounding error above the capacity is not dropped here.
    cap_slack = capacity + 1e-12
    idx_list: List[int] = []
    p_list: List[float] = []
    w_list: List[float] = []
    for k, w in enumerate(weights):
        if profits[k] > 0.0 and w <= cap_slack:
            idx_list.append(k)
            p_list.append(profits[k])
            w_list.append(w)
    n = len(idx_list)
    if n == 0:
        return []

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
        return [idx_list[k] for k in sorted(members[:g_count])]

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
        return [idx_list[k] for k in sorted(base_chosen)]

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
    return [idx_list[k] for k in sorted(chosen)]


# ----------------------------------------------------------------------
# FPTAS (beta = 1 + eps)
# ----------------------------------------------------------------------
def knapsack_fptas(
    profits: Sequence[float],
    weights: Sequence[float],
    capacity: float,
    epsilon: float = 0.1,
) -> List[int]:
    """Profit-scaling FPTAS (Lawler [13] style), ``profit ≥ OPT/(1+ε)``.

    Profits are scaled by ``K = ε · p_max / n`` and a min-weight-per-
    scaled-profit DP runs in ``O(n² · ⌈n/ε⌉)`` — the classic trade of a
    controlled profit loss for weight-independent pseudo-polynomiality.
    The DP rows are vectorised shifts, so the inner loop is NumPy-speed.
    """
    if not 0 < epsilon:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    _check(profits, weights)
    idx = [k for k, (p, w) in enumerate(zip(profits, weights)) if p > 0.0 and w <= capacity]
    n = len(idx)
    if n == 0:
        return []
    p_list = [profits[k] for k in idx]
    w_list = [weights[k] for k in idx]
    scale = epsilon * max(p_list) / n
    q = np.floor(np.array(p_list) / scale).astype(np.int64).tolist()
    q_total = sum(q)

    # min_weight[v] = minimal weight achieving scaled profit exactly v.
    inf = np.inf
    min_weight = np.full(q_total + 1, inf)
    min_weight[0] = 0.0
    take = np.zeros((n, q_total + 1), dtype=bool)
    for k in range(n):
        qk = q[k]
        if qk == 0:
            # A scaled-to-zero item can still be profitable; handled by a
            # greedy sweep afterwards.  Skipping keeps the DP exactness.
            continue
        shifted = np.full(q_total + 1, inf)
        shifted[qk:] = min_weight[:-qk]
        cand = shifted + w_list[k]
        take[k] = cand < min_weight
        np.minimum(min_weight, cand, out=min_weight)

    best_v = int(np.flatnonzero(min_weight <= capacity + 1e-12).max())

    # Reconstruct by replaying decisions backwards.
    chosen: List[int] = []
    v = best_v
    for k in range(n - 1, -1, -1):
        if v > 0 and take[k, v]:
            chosen.append(k)
            v -= q[k]
    # v may be nonzero only if reconstruction failed — guard hard.
    if v != 0:
        raise AssertionError("FPTAS reconstruction mismatch")

    # Opportunistic improvement: pack scaled-to-zero items (and any other
    # leftovers) greedily into the remaining capacity.  Never hurts the
    # guarantee.  The packed weight sums in reconstruction order.
    packed = 0.0
    for k in chosen:
        packed += w_list[k]
    remaining = float(capacity) - packed
    used = set(chosen)
    for k in _by_density(p_list, w_list):
        if k not in used and w_list[k] <= remaining:
            chosen.append(k)
            used.add(k)
            remaining -= w_list[k]
    return [idx[k] for k in sorted(chosen)]


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def knapsack_solver(
    method: str = "few_weights", epsilon: float = 0.1
) -> Callable[[Sequence[float], Sequence[float], float], List[int]]:
    """``method``'s solver, ``(profits, weights, capacity) -> selected``.

    ``method`` ∈ {"few_weights", "greedy", "fptas"}; the default is the
    exact few-weights solver, which the paper's 4-level radio always
    allows.  ``epsilon`` is the FPTAS accuracy.  An unknown method or
    ``epsilon <= 0`` raises ``ValueError`` here, before any solve.  The
    solver records nothing: ``Offline_Appro`` counts its knapsacks once
    per pass.
    """
    if method not in ("few_weights", "greedy", "fptas"):
        raise ValueError(f"unknown knapsack method {method!r}")
    if not 0 < epsilon:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if method == "fptas":
        return partial(knapsack_fptas, epsilon=epsilon)
    return knapsack_few_weights if method == "few_weights" else knapsack_greedy
