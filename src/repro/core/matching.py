"""Maximum-weight bipartite b-matching.

``Online_MaxMatch`` (Section VI) matches each probe interval's slots to
*copies* of its registered sensors (``n_i'`` copies each).  Copies of
one sensor are interchangeable, so this is a **b-matching**: left node
``i`` may be matched to up to ``c_i`` right nodes, every right node to
at most one left node, maximising total edge weight.

The engine is the paper's node-copies graph solved as a sparse
assignment: left node ``i`` becomes ``k_i = min(c_i, distinct
neighbours)`` unit copies, each carrying ``i``'s edges, and scipy's
sparse Jonker–Volgenant solver
(:func:`scipy.sparse.csgraph.min_weight_full_bipartite_matching`, with
``maximize=True``) assigns every right node a copy or its own dummy
column.  A dummy weighs the smallest normal double, so leaving a right
node unmatched costs nothing measurable, while small kept weights still
count (tested down to 1e-9 beside 2.5e5).  The test suite cross-checks
the optimum against a min-cost-flow oracle, a dense assignment, the
b-matching LP and a brute-force matcher.

Tie-break.  Optimal matchings often tie (equal-weight slots in one
window), and which optimum a solver returns depends on the order it
sees the edges.  Edges are deduplicated (the heaviest parallel edge
survives) and sorted by ``(left, right)`` before the assignment graph is
built, so the same edge *set* yields the same graph and, with the
deterministic solver, the same pairs, sorted by ``(left, right)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.core.lp import load_highs
from repro.obs import get_registry, phase
from repro.utils.arrays import group_offsets, ragged_arange

__all__ = ["MatchingResult", "max_weight_b_matching"]

#: Edges below this weight are dropped (they cannot improve the matching).
_WEIGHT_EPS = 1e-12

#: Weight of each right node's dummy column.  csgraph drops explicit
#: zeros, and the smallest normal double vanishes beside any kept edge
#: weight, so it cannot change which matching is heaviest (an additive
#: offset on every weight would round away the low bits of small ones).
_DUMMY_WEIGHT = np.finfo(np.float64).tiny

#: ``(E, 3)`` rows of ``(left, right, weight)``, or any sequence of triples.
Edges = Union[np.ndarray, Sequence[Tuple[int, int, float]]]


@dataclass(frozen=True)
class MatchingResult:
    """A b-matching: ``pairs[k] = (left, right)`` plus the total weight."""

    pairs: Tuple[Tuple[int, int], ...]
    weight: float

    def right_of(self, num_right: int) -> np.ndarray:
        """``(num_right,)`` array mapping right node → left node or -1."""
        out = np.full(num_right, -1, dtype=np.int64)
        if self.pairs:
            left, right = np.asarray(self.pairs, dtype=np.int64).T
            out[right] = left
        return out


def _check_inputs(
    edges: Edges,
    left_capacities: Sequence[int],
    num_right: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    caps = np.asarray(left_capacities, dtype=np.int64)
    if caps.ndim != 1:
        raise ValueError("left_capacities must be 1-D")
    if np.any(caps < 0):
        raise ValueError("left capacities must be >= 0")
    if num_right < 0:
        raise ValueError("num_right must be >= 0")
    arr = np.asarray(edges, dtype=np.float64)
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 3):
        raise ValueError("edges must be (left, right, weight) triples")
    arr = arr.reshape(-1, 3)
    u = arr[:, 0].astype(np.int64)
    v = arr[:, 1].astype(np.int64)
    w = arr[:, 2]
    if np.any(u < 0) or np.any(u >= caps.size):
        raise ValueError("edge left endpoint out of range")
    if np.any(v < 0) or np.any(v >= num_right):
        raise ValueError("edge right endpoint out of range")
    if not np.all(np.isfinite(w)):
        raise ValueError("edge weights must be finite")
    return u, v, w, caps


def max_weight_b_matching(
    edges: Edges,
    left_capacities: Sequence[int],
    num_right: int,
) -> MatchingResult:
    """Compute a maximum-weight bipartite b-matching.

    Parameters
    ----------
    edges:
        ``(left, right, weight)`` rows: an ``(E, 3)`` float64 array (the
        form :func:`repro.core.offline_maxmatch.build_matching_edges`
        returns) or any sequence of triples.  Non-positive-weight edges
        are ignored (they never help a *maximum*-weight matching).
        Parallel edges are allowed; only the heaviest parallel edge can
        matter.
    left_capacities:
        ``c_i`` per left node (the paper's ``n_i'`` copy counts).
    num_right:
        Number of right nodes (time slots).

    Returns
    -------
    MatchingResult
        Optimal matching; every right node appears at most once and left
        node ``i`` appears at most ``c_i`` times.  Ties are broken as the
        module docstring describes.

    Notes
    -----
    Records ``matching.calls`` / ``matching.edges`` counters and a
    ``matching.lp`` timer (the solve, named for the LP engine it
    replaced) to the :mod:`repro.obs` registry.
    """
    u, v, w, caps = _check_inputs(edges, left_capacities, num_right)
    keep = w > _WEIGHT_EPS
    u, v, w = u[keep], v[keep], w[keep]
    if u.size == 0:
        return MatchingResult((), 0.0)

    # Deduplicate parallel edges, keeping the heaviest; the survivors
    # come out sorted by (left, right), which pins the assignment graph.
    key = u * np.int64(num_right) + v
    order = np.lexsort((-w, key))
    key_sorted = key[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    sel = order[first]
    u, v, w = u[sel], v[sel], w[sel]

    registry = get_registry()
    registry.inc("matching.calls")
    registry.inc("matching.edges", float(u.size))
    with phase("matching.lp"):
        return _solve_assignment(u, v, w, caps, num_right)


def _solve_assignment(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, caps: np.ndarray, num_right: int
) -> MatchingResult:
    """Sparse Jonker–Volgenant assignment of right nodes to left-node copies.

    ``u, v, w`` are the deduplicated edges sorted by ``(left, right)``.
    """
    _, sparse = load_highs()
    # Left node i becomes min(c_i, distinct neighbours) unit copies, the
    # columns offsets[i] .. offsets[i + 1] - 1.
    copies = np.minimum(caps, np.bincount(u, minlength=caps.size))
    offsets = group_offsets(copies)
    num_copies = int(offsets[-1])
    # Row j holds every copy of each neighbour of j, left ascending,
    # then j's dummy column num_copies + j.
    by_right = np.argsort(v, kind="stable")
    fan = copies[u[by_right]]
    entry = np.repeat(by_right, fan)
    indptr = group_offsets(np.bincount(v[entry], minlength=num_right) + 1)
    dummy = np.zeros(indptr[-1], dtype=bool)
    dummy[indptr[1:] - 1] = True
    indices = np.empty(indptr[-1], dtype=np.int64)
    indices[~dummy] = offsets[u[entry]] + ragged_arange(fan)
    indices[dummy] = num_copies + np.arange(num_right)
    data = np.empty(indptr[-1])
    data[~dummy] = w[entry]
    data[dummy] = _DUMMY_WEIGHT
    graph = sparse.csr_array(
        (data, indices, indptr), shape=(num_right, num_copies + num_right)
    )
    _, col = sparse.csgraph.min_weight_full_bipartite_matching(graph, maximize=True)
    matched = col < num_copies
    left = np.searchsorted(offsets, col[matched], side="right") - 1
    # Map each matched (left, right) back to its edge; the codes are sorted.
    key = u * np.int64(num_right) + v
    chosen = np.zeros(u.size, dtype=bool)
    chosen[np.searchsorted(key, left * np.int64(num_right) + np.flatnonzero(matched))] = True
    pairs = tuple(zip(u[chosen].tolist(), v[chosen].tolist()))
    return MatchingResult(pairs, float(w[chosen].sum()))
