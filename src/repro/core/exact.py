"""Brute-force exact optimum for tiny DCMP instances.

The paper validates its approximation ratio analytically; we validate it
*empirically* by comparing every algorithm against the true optimum on
instances small enough to enumerate.  The search walks the slots in
order, branching on "which competitor (or nobody) gets this slot", with
budget tracking and an optimistic remaining-profit bound for pruning.

Deliberately simple and obviously correct — this is test oracle code,
not production path.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance

__all__ = ["brute_force_optimum"]

#: Safety valve on the search-tree size.
_MAX_NODES_DEFAULT = 5_000_000


def brute_force_optimum(
    instance: DataCollectionInstance,
    max_nodes: int = _MAX_NODES_DEFAULT,
) -> Allocation:
    """The true optimum allocation, by exhaustive branching.

    Raises ``RuntimeError`` when the search exceeds ``max_nodes`` nodes —
    callers should only pass instances with, say, ``T ≤ 15`` and a
    handful of competitors per slot.
    """
    t = instance.num_slots

    # Per-slot candidate (sensor, profit, cost) lists; drop zero-profit.
    candidates: List[List[Tuple[int, float, float]]] = []
    for j in range(t):
        row = []
        for i in instance.slot_competitors(j):
            i = int(i)
            profit = instance.profit(i, j)
            if profit > 0:
                row.append((i, profit, instance.cost(i, j)))
        candidates.append(row)

    # Optimistic suffix bound: best single profit per slot, summed.
    best_per_slot = np.array([max((p for _, p, _ in row), default=0.0) for row in candidates])
    suffix_bound = np.concatenate([np.cumsum(best_per_slot[::-1])[::-1], [0.0]])

    budgets = instance.budgets_array().copy()
    owner = np.full(t, -1, dtype=np.int64)
    best_owner = owner.copy()
    best_profit = -1.0
    nodes = 0

    def dfs(j: int, profit_acc: float) -> None:
        nonlocal best_profit, best_owner, nodes
        nodes += 1
        if nodes > max_nodes:
            raise RuntimeError(f"brute force exceeded {max_nodes} nodes")
        if profit_acc > best_profit:
            best_profit = profit_acc
            best_owner = owner.copy()
        if j == t:
            return
        if profit_acc + suffix_bound[j] <= best_profit + 1e-12:
            return
        for sensor, profit, cost in candidates[j]:
            if cost <= budgets[sensor] + 1e-12:
                budgets[sensor] -= cost
                owner[j] = sensor
                dfs(j + 1, profit_acc + profit)
                owner[j] = -1
                budgets[sensor] += cost
        dfs(j + 1, profit_acc)  # leave slot j idle

    dfs(0, 0.0)
    allocation = Allocation(best_owner)
    allocation.check_feasible(instance)
    return allocation
