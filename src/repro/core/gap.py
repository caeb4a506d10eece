"""Generalized Assignment Problem via the local-ratio technique.

Implements the Cohen–Katzir–Raz [3] combinatorial translation the paper
adopts for ``Offline_Appro`` (Section IV.A): any ``β``-approximation for
knapsack becomes a ``1/(1+β)``-approximation for GAP.

The algorithm processes bins in a fixed order.  For bin ``l`` it solves
a knapsack over the bin's candidate items using the *residual* profit
function ``D^{(l)}``; the profit function then decomposes as in the
paper's equations (5)–(6):

    D^{(l+1)}_{i,j} = D^{(l)}_{l,j}   if j ∈ S̄_l (for every bin i), or i = l
    T^{(l+1)}       = D^{(l)} − D^{(l+1)}        (the next residual)

Operationally: after packing ``S̄_l``, every *other* bin's residual
profit for each item ``j ∈ S̄_l`` drops by bin ``l``'s residual profit
for ``j`` (possibly going negative — such items are simply never
selected later), and bin ``l`` leaves the game.  A final backward sweep
resolves conflicts: ``S_l = S̄_l \\ ∪_{j>l} S_j``.

A :class:`GapInstance` stores one form only: flat arrays with bin ``l``'s
candidate items, profits and weights at ``[offsets[l], offsets[l+1])``,
one capacity per bin, and an occupancy index (item → its entries) built
from those arrays.  The public constructor takes those arrays and checks
them in bulk; ``dcmp_to_gap`` hands a DCMP instance's own flat pair
arrays to the unchecked initialiser, since the instance checked them
when it was built.

The residual table is a copy of the flat profits; each round's
decomposition is a single fancy-indexed subtraction over the chosen
items' occupancy ranges, so a round costs O(updates) array work instead
of a nested Python loop.

The module is independent of the sensor-network semantics so it can be
tested against textbook GAP instances directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.knapsack import KnapsackResult, solve_knapsack
from repro.obs import get_registry, phase
from repro.utils.arrays import ordered_sum

__all__ = ["GapInstance", "GapSolution", "local_ratio_gap"]

KnapsackSolver = Callable[[np.ndarray, np.ndarray, float], KnapsackResult]


class GapInstance:
    """A GAP instance, stored flat.

    Items are identified by arbitrary non-negative integers; an item may
    be a candidate of any subset of bins (in the DCMP reduction, item =
    time slot, candidates = sensors whose window covers it).

    Bin ``l``'s candidates occupy ``[offsets[l], offsets[l+1])`` of the
    aligned ``items``, ``profits`` and ``weights`` arrays; its capacity
    is ``capacities[l]``.  The constructor checks that the arrays align,
    that items are non-negative and distinct within a bin, and that
    capacities are ``>= 0``, and copies them;
    ``repro.core.offline_appro.dcmp_to_gap`` hands a DCMP instance's
    flat pair arrays to the array initialiser without copying.
    """

    def __init__(
        self,
        offsets: np.ndarray,
        items: np.ndarray,
        profits: np.ndarray,
        weights: np.ndarray,
        capacities: np.ndarray,
    ):
        offsets = np.array(offsets, dtype=np.int64)
        items = np.array(items, dtype=np.int64)
        profits = np.array(profits, dtype=np.float64)
        weights = np.array(weights, dtype=np.float64)
        capacities = np.array(capacities, dtype=np.float64)
        if not (items.shape == profits.shape == weights.shape) or items.ndim != 1:
            raise ValueError("items, profits, weights must be equal-length 1-D")
        sizes = np.diff(offsets)
        if (
            capacities.ndim != 1
            or offsets.shape != (capacities.size + 1,)
            or offsets[0] != 0
            or offsets[-1] != items.size
            or np.any(sizes < 0)
        ):
            raise ValueError("offsets must rise from 0 to len(items), one step per capacity")
        if np.any(items < 0):
            raise ValueError("items must be non-negative")
        # Sorted by (bin, item), a repeat within a bin sits next to its twin.
        bin_of = np.repeat(np.arange(capacities.size, dtype=np.int64), sizes)
        order = np.lexsort((items, bin_of))
        twin = (np.diff(items[order]) == 0) & (np.diff(bin_of[order]) == 0)
        if twin.any():
            raise ValueError(
                f"bin {bin_of[order][np.argmax(twin)]} candidate items must be distinct"
            )
        negative = capacities < 0
        if negative.any():
            l = int(np.argmax(negative))
            raise ValueError(f"bin {l} capacity must be >= 0, got {float(capacities[l])}")
        self._set_arrays(offsets, items, profits, weights, capacities)

    def _set_arrays(
        self,
        offsets: np.ndarray,
        items: np.ndarray,
        profits: np.ndarray,
        weights: np.ndarray,
        capacities: np.ndarray,
        item_order: Optional[np.ndarray] = None,
    ) -> "GapInstance":
        """The one initialiser: store the flat form as given.  The caller
        guarantees what the constructor checks (int64 items, non-negative
        and distinct within a bin, aligned float64 arrays, capacities
        ≥ 0) and that ``item_order`` is ``np.argsort(items,
        kind="stable")`` if given."""
        self.offsets = offsets
        self.items = items
        self.profits = profits
        self.weights = weights
        self.capacities = capacities
        self.num_items = int(items.max()) + 1 if items.size else 0
        self._occ_keys: Optional[np.ndarray] = None
        # Reverse index, flat: occupancy entry k is the flat position
        # _occ_flat[k] of an item's candidate entry in bin _occ_bin[k];
        # item j's entries span [_occ_bounds[j], _occ_bounds[j+1]).  The
        # stable sort keeps them bin-ascending within an item.
        self._occ_flat = np.argsort(items, kind="stable") if item_order is None else item_order
        bin_of = np.repeat(np.arange(offsets.size - 1, dtype=np.int64), np.diff(offsets))
        self._occ_bin = bin_of[self._occ_flat]
        self._occ_bounds = np.searchsorted(
            items[self._occ_flat], np.arange(self.num_items + 1, dtype=np.int64)
        )
        self._occ_counts = np.diff(self._occ_bounds)
        return self

    @property
    def num_bins(self) -> int:
        """Number of bins."""
        return self.capacities.size

    def bins_containing(self, item: int) -> List[Tuple[int, int]]:
        """``[(bin, position)]`` pairs whose candidate set includes
        ``item``."""
        lo, hi = self._occ_bounds[item], self._occ_bounds[item + 1]
        bins = self._occ_bin[lo:hi]
        positions = self._occ_flat[lo:hi] - self.offsets[bins]
        return list(zip(bins.tolist(), positions.tolist()))

    def profit_of_assignment(self, assignment: Dict[int, Sequence[int]]) -> float:
        """Total profit of ``{bin: [items...]}`` (raises on non-candidate
        pairs)."""
        bins = np.fromiter(
            (bi for bi, items in assignment.items() for _ in items), np.int64
        )
        wanted = np.fromiter(
            (item for items in assignment.values() for item in items),
            np.int64,
            count=bins.size,
        )
        if not bins.size:
            return 0.0
        outside = (bins < 0) | (bins >= self.num_bins)
        if np.any(outside):
            raise IndexError(f"bin {int(bins[np.argmax(outside)])} out of range")
        if self._occ_keys is None:
            # One (item, bin) key per occupancy entry, ascending.
            self._occ_keys = self.items[self._occ_flat] * self.num_bins + self._occ_bin
        keys = wanted * self.num_bins + bins
        pos = np.searchsorted(self._occ_keys, keys)
        # An item outside [0, num_items) has no entry (and its key may
        # have wrapped around).
        found = (wanted >= 0) & (wanted < self.num_items) & (pos < self._occ_keys.size)
        found[found] = self._occ_keys[pos[found]] == keys[found]
        if not found.all():
            raise KeyError(int(wanted[int(np.argmin(found))]))
        # In request order, bit-identical to the scalar reference.
        return ordered_sum(self.profits[self._occ_flat[pos]])


@dataclass
class GapSolution:
    """Result of :func:`local_ratio_gap`.

    Attributes
    ----------
    assignment:
        ``{bin: sorted list of items}`` — disjoint across bins.
    tentative:
        The pre-conflict-resolution sets ``S̄_l`` (diagnostics; these may
        overlap across bins).
    profit:
        Total profit of ``assignment`` under the *original* profits.
    """

    assignment: Dict[int, List[int]]
    tentative: Dict[int, List[int]]
    profit: float


def local_ratio_gap(
    instance: GapInstance,
    knapsack_solver: Optional[KnapsackSolver] = None,
    bin_order: Optional[Sequence[int]] = None,
) -> GapSolution:
    """Cohen–Katzir–Raz local-ratio approximation for GAP.

    Parameters
    ----------
    instance:
        The GAP instance.
    knapsack_solver:
        ``(profits, weights, capacity) -> KnapsackResult``; defaults to
        :func:`repro.core.knapsack.solve_knapsack`'s exact default
        (``method='few_weights'``), hence an overall 1/2-approximation.
    bin_order:
        Processing order of bins; defaults to 0..n-1.  ``Offline_Appro``
        passes the paper's start-slot order.

    Returns
    -------
    GapSolution
        Feasible (disjoint, capacity-respecting) assignment.

    Notes
    -----
    Records ``gap.local_ratio_rounds`` (one per bin) and
    ``gap.residual_updates`` counters plus a ``gap.local_ratio`` timer
    to the :mod:`repro.obs` registry.
    """
    if knapsack_solver is None:
        knapsack_solver = solve_knapsack
    order = list(range(instance.num_bins)) if bin_order is None else list(bin_order)
    if sorted(order) != list(range(instance.num_bins)):
        raise ValueError("bin_order must be a permutation of all bins")

    registry = get_registry()
    with phase("gap.local_ratio"):
        # Residual profit over all (bin, position) entries, flat; bin l
        # occupies [offsets[l], offsets[l+1]).
        residual = instance.profits.astype(np.float64)
        items = instance.items
        weights = instance.weights
        capacities = instance.capacities.tolist()
        occ_bin = instance._occ_bin
        occ_bounds = instance._occ_bounds
        occ_counts_all = instance._occ_counts
        occ_flat = instance._occ_flat
        offsets_list = instance.offsets.tolist()

        tentative: Dict[int, List[int]] = {}
        residual_updates = 0

        for l in order:
            lo, hi = offsets_list[l], offsets_list[l + 1]
            result = knapsack_solver(residual[lo:hi], weights[lo:hi], capacities[l])
            chosen = result.selected
            # Decompose: subtract bin l's residual profit of each chosen
            # item from every other bin containing that item (equation
            # (5)).  Each (item, other-bin) entry is touched exactly
            # once per round, so one fancy-indexed subtraction is
            # arithmetically identical to the scalar loop.
            if chosen:
                chosen_flat = lo + np.fromiter(chosen, np.int64, count=len(chosen))
                tentative[l] = items[chosen_flat].tolist()
                deltas = residual[chosen_flat]
                positive = deltas > 0.0
                if positive.all():
                    # The default solver only selects positive-residual
                    # items, so this is the near-universal path.
                    items_chosen = items[chosen_flat]
                elif positive.any():
                    items_chosen = items[chosen_flat[positive]]
                    deltas = deltas[positive]
                else:
                    items_chosen = None
                if items_chosen is not None:
                    occ_counts = occ_counts_all[items_chosen]
                    # repeat(occ_lo, c) + ragged_arange(c), fused: shift
                    # each range start by its exclusive prefix offset.
                    bounds = np.cumsum(occ_counts)
                    starts = bounds - occ_counts
                    occ_idx = np.repeat(
                        occ_bounds[items_chosen] - starts, occ_counts
                    ) + np.arange(int(bounds[-1]), dtype=np.int64)
                    keep = occ_bin[occ_idx] != l
                    targets = occ_flat[occ_idx[keep]]
                    residual[targets] -= np.repeat(deltas, occ_counts)[keep]
                    residual_updates += int(targets.size)
            else:
                tentative[l] = []
            # Bin l leaves the game.
            residual[lo:hi] = -np.inf

        # Backward conflict resolution: S_l = S̄_l \ U_{later} S.
        taken: set = set()
        assignment: Dict[int, List[int]] = {}
        for l in reversed(order):
            mine = [item for item in tentative[l] if item not in taken]
            assignment[l] = sorted(mine)
            taken.update(mine)

        profit = instance.profit_of_assignment(assignment)
    registry.inc("gap.local_ratio_rounds", float(len(order)))
    registry.inc("gap.residual_updates", float(residual_updates))
    return GapSolution(assignment=assignment, tentative={k: sorted(v) for k, v in tentative.items()}, profit=profit)
