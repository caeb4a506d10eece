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

The residual table lives in **one flat array** (all bins concatenated);
each round's decomposition is a single fancy-indexed subtraction over
the chosen items' occupancy ranges, so a round costs O(updates) array
work instead of a nested Python loop.

The module is independent of the sensor-network semantics so it can be
tested against textbook GAP instances directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.knapsack import KnapsackResult, solve_knapsack
from repro.obs import get_registry, phase
from repro.utils.arrays import group_offsets, ragged_arange

__all__ = ["GapBin", "GapInstance", "GapSolution", "local_ratio_gap"]

KnapsackSolver = Callable[[np.ndarray, np.ndarray, float], KnapsackResult]


@dataclass(frozen=True)
class GapBin:
    """One bin of a GAP instance.

    Attributes
    ----------
    capacity:
        Resource capacity ``b_i``.
    items:
        Candidate item ids this bin may receive.
    profits / weights:
        Aligned with ``items``: ``c_{i,j}`` and ``b_{i,j}``.
    """

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

    @classmethod
    def _trusted(
        cls,
        capacity: float,
        items: np.ndarray,
        profits: np.ndarray,
        weights: np.ndarray,
        items_ascending: Optional[bool] = None,
    ) -> "GapBin":
        """Construct without validation — for bulk reductions whose
        invariants (int64/float64 1-D arrays of equal length, distinct
        items, capacity ≥ 0) hold by construction.  ``items_ascending``
        pre-answers the "strictly ascending items" probe so
        :meth:`GapInstance._items_sorted` can skip the per-bin scan."""
        b = object.__new__(cls)
        object.__setattr__(b, "capacity", capacity)
        object.__setattr__(b, "items", items)
        object.__setattr__(b, "profits", profits)
        object.__setattr__(b, "weights", weights)
        if items_ascending is not None:
            object.__setattr__(b, "_items_ascending", items_ascending)
        return b


class GapInstance:
    """A GAP instance: bins with per-bin candidate items.

    Items are identified by arbitrary non-negative integers; an item may
    be a candidate of any subset of bins (in the DCMP reduction, item =
    time slot, candidates = sensors whose window covers it).
    """

    def __init__(self, bins: Sequence[GapBin]):
        self.bins: Tuple[GapBin, ...] = tuple(bins)
        sizes = np.fromiter(
            (b.items.size for b in self.bins), np.int64, count=len(self.bins)
        )
        self._bin_offsets = group_offsets(sizes)
        total = int(self._bin_offsets[-1])
        if total:
            all_items = np.concatenate([b.items for b in self.bins])
        else:
            all_items = np.zeros(0, dtype=np.int64)
        self.num_items = int(all_items.max()) + 1 if total else 0
        # Reverse index, flat: occupancy entry k says item _occ_item[k]
        # appears in bin _occ_bin[k] at position _occ_pos[k].  Stable
        # sort by item keeps entries (bin, pos)-ascending within an
        # item, exactly the old list-of-lists iteration order.
        all_bins = np.repeat(np.arange(len(self.bins), dtype=np.int64), sizes)
        all_pos = ragged_arange(sizes)
        order = np.argsort(all_items, kind="stable")
        self._occ_item = all_items[order]
        self._occ_bin = all_bins[order]
        self._occ_pos = all_pos[order]
        self._occ_bounds = np.searchsorted(
            self._occ_item, np.arange(self.num_items + 1, dtype=np.int64)
        )
        self._occ_counts = self._occ_bounds[1:] - self._occ_bounds[:-1]
        # Flat index of each occupancy entry into a bins-concatenated
        # residual array (what local_ratio_gap iterates over).
        self._occ_flat = self._bin_offsets[self._occ_bin] + self._occ_pos
        # Per-bin "items sorted strictly ascending" flags let
        # profit_of_assignment use searchsorted lookups (lazy).
        self._sorted_items: Optional[np.ndarray] = None

    @property
    def num_bins(self) -> int:
        """Number of bins."""
        return len(self.bins)

    def bins_containing(self, item: int) -> List[Tuple[int, int]]:
        """``[(bin, position)]`` pairs whose candidate set includes
        ``item``."""
        lo, hi = self._occ_bounds[item], self._occ_bounds[item + 1]
        return list(
            zip(self._occ_bin[lo:hi].tolist(), self._occ_pos[lo:hi].tolist())
        )

    def _items_sorted(self, bi: int) -> bool:
        if self._sorted_items is None:
            self._sorted_items = np.fromiter(
                (
                    hinted
                    if (hinted := getattr(b, "_items_ascending", None)) is not None
                    else bool(np.all(np.diff(b.items) > 0))
                    for b in self.bins
                ),
                np.bool_,
                count=len(self.bins),
            )
        return bool(self._sorted_items[bi])

    def profit_of_assignment(self, assignment: Dict[int, Sequence[int]]) -> float:
        """Total profit of ``{bin: [items...]}`` (raises on non-candidate
        pairs)."""
        total = 0.0
        for bi, items in assignment.items():
            b = self.bins[bi]
            items = list(items)
            if not items:
                continue
            if b.items.size == 0:
                raise KeyError(int(items[0]))
            if self._items_sorted(bi):
                wanted = np.asarray(items, dtype=np.int64)
                pos = np.searchsorted(b.items, wanted)
                try:
                    hit = b.items[pos]
                except IndexError:
                    # Some position fell past the end: at least one item
                    # is not a candidate here.  Re-derive the first bad
                    # entry (mismatch or overflow, whichever comes
                    # first) so the error matches the clipped lookup.
                    pos_clipped = np.minimum(pos, b.items.size - 1)
                    bad = (pos >= b.items.size) | (b.items[pos_clipped] != wanted)
                    raise KeyError(int(wanted[int(np.argmax(bad))])) from None
                bad = hit != wanted
                if np.any(bad):
                    raise KeyError(int(wanted[int(np.argmax(bad))]))
                values = b.profits[pos].tolist()
            else:
                lookup = {int(item): k for k, item in enumerate(b.items)}
                values = [float(b.profits[lookup[int(item)]]) for item in items]
            # Sequential accumulation in item order (bit-identical to the
            # scalar reference).
            for v in values:
                total += v
        return total


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
        :func:`repro.core.knapsack.solve_knapsack` with ``method='auto'``
        (exact for the radio-table weight structure, hence an overall
        1/2-approximation).
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
        # occupies [bin_offsets[l], bin_offsets[l+1]).
        offsets = instance._bin_offsets
        total = int(offsets[-1])
        if total:
            residual = np.concatenate(
                [b.profits for b in instance.bins]
            ).astype(np.float64)
        else:
            residual = np.zeros(0, dtype=np.float64)
        occ_bin = instance._occ_bin
        occ_bounds = instance._occ_bounds
        occ_counts_all = instance._occ_counts
        occ_flat = instance._occ_flat
        offsets_list = offsets.tolist()

        tentative: Dict[int, List[int]] = {}
        residual_updates = 0

        for l in order:
            b = instance.bins[l]
            lo, hi = offsets_list[l], offsets_list[l + 1]
            result = knapsack_solver(residual[lo:hi], b.weights, b.capacity)
            chosen = result.selected
            # Decompose: subtract bin l's residual profit of each chosen
            # item from every other bin containing that item (equation
            # (5)).  Each (item, other-bin) entry is touched exactly
            # once per round, so one fancy-indexed subtraction is
            # arithmetically identical to the scalar loop.
            if chosen:
                items_list = b.items.tolist()
                tentative[l] = [items_list[k] for k in chosen]
                chosen_positions = np.fromiter(chosen, np.int64, count=len(chosen))
                deltas = residual[lo + chosen_positions]
                positive = deltas > 0.0
                if positive.all():
                    # The default solver only selects positive-residual
                    # items, so this is the near-universal path.
                    items_chosen = b.items[chosen_positions]
                elif positive.any():
                    items_chosen = b.items[chosen_positions[positive]]
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
