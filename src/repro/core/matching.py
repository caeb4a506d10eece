"""Maximum-weight bipartite b-matching.

``Online_MaxMatch`` (Section VI) matches each probe interval's slots to
*copies* of its registered sensors (``n_i'`` copies each).  Copies of
one sensor are interchangeable, so this is a **b-matching**: left node
``i`` may be matched to up to ``c_i`` right nodes, every right node to
at most one left node, maximising total edge weight.

The engine is the b-matching LP, handed to HiGHS through
:func:`scipy.optimize.milp` with no integrality (so HiGHS runs its LP
path: presolve, then dual simplex).  The constraint matrix is the
incidence matrix of a bipartite graph, hence totally unimodular, so the
vertex optimum is integral; the solver still checks integrality and
raises on a fractional vertex.  The test suite cross-checks it against
a min-cost-flow oracle and a brute-force matcher.

Tie-break.  Optimal matchings often tie (equal-weight slots in one
window), and which optimum a solver returns depends on the order it
sees the columns.  Edges are deduplicated (the heaviest parallel edge
survives) and sorted by ``(left, right)`` before the LP is built, so the
same edge *set* yields the same LP and, with HiGHS's deterministic dual
simplex after presolve, the same pairs, sorted by ``(left, right)``.
``tests/oracles.py`` keeps the same LP through
``linprog(method="highs-ds")``, which must return equal pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.core.lp import load_highs
from repro.obs import get_registry, phase

__all__ = ["MatchingResult", "max_weight_b_matching"]

#: Edges below this weight are dropped (they cannot improve the matching).
_WEIGHT_EPS = 1e-12

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
    ``matching.lp`` timer to the :mod:`repro.obs` registry.
    """
    u, v, w, caps = _check_inputs(edges, left_capacities, num_right)
    keep = w > _WEIGHT_EPS
    u, v, w = u[keep], v[keep], w[keep]
    if u.size == 0:
        return MatchingResult((), 0.0)

    # Deduplicate parallel edges, keeping the heaviest; the survivors
    # come out sorted by (left, right), which pins the LP column order.
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
        return _solve_lp(u, v, w, caps, num_right)


def _solve_lp(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, caps: np.ndarray, num_right: int
) -> MatchingResult:
    """HiGHS dual simplex on the (totally unimodular) b-matching LP."""
    optimize, sparse = load_highs()
    num_edges = u.size
    # Constraints: per-right <= 1 (rows 0..T-1), per-left <= c_i (rows
    # T + i).  Column k holds a 1 in slot row v[k] and one in sensor row
    # T + u[k]; v[k] < T, so each column's row indices are ascending.
    indices = np.empty(2 * num_edges, dtype=np.int64)
    indices[0::2] = v
    indices[1::2] = num_right + u
    a_ub = sparse.csc_array(
        (np.ones(2 * num_edges), indices, np.arange(0, 2 * num_edges + 1, 2)),
        shape=(num_right + caps.size, num_edges),
    )
    b_ub = np.concatenate([np.ones(num_right), caps.astype(np.float64)])
    res = optimize.milp(
        c=-w,
        constraints=optimize.LinearConstraint(a_ub, -np.inf, b_ub),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    if not res.success:  # pragma: no cover - defensive
        raise RuntimeError(f"b-matching LP failed: {res.message}")
    x = res.x
    chosen = x > 0.5
    # Vertex solutions of a TU polytope are integral; verify anyway.
    frac = np.abs(x - np.round(x)).max() if x.size else 0.0
    if frac > 1e-6:  # pragma: no cover - defensive
        raise RuntimeError(f"LP returned a fractional vertex (max frac {frac:.2e})")
    # u, v are (left, right)-sorted, so the pairs already are too.
    pairs = tuple(zip(u[chosen].tolist(), v[chosen].tolist()))
    weight = float(w[chosen].sum())
    return MatchingResult(pairs, weight)
