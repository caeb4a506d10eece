"""Small array utilities shared by the vectorised solver core.

The array-native refactor repeatedly needs "ragged" fan-outs: a count
per group, and a flat concatenation of ``arange(count)`` (or
``start + arange(count)``) runs.  Doing this with ``np.repeat`` +
cumulative offsets keeps the whole construction in C instead of a
Python loop per group.  Sums that must equal a scalar reference bit
for bit go through :func:`ordered_sum`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ragged_arange", "group_offsets", "ordered_sum"]


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[arange(c) for c in counts]`` without the loop.

    ``counts`` must be a 1-D array of non-negative integers; the result
    has length ``counts.sum()``.  Example: ``[2, 0, 3]`` →
    ``[0, 1, 0, 1, 2]``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def group_offsets(counts: np.ndarray) -> np.ndarray:
    """``(len(counts) + 1,)`` prefix offsets: group ``g`` spans
    ``[offsets[g], offsets[g+1])`` in the flat concatenation."""
    counts = np.asarray(counts, dtype=np.int64)
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def ordered_sum(values: np.ndarray) -> float:
    """``Σ values`` added first to last: equal bit for bit to ``total =
    0.0; for v in values: total += v``, which ``np.sum`` (pairwise) and
    ``sum()`` (compensated on Python >= 3.12) are not.  ``np.cumsum``
    adds in order; ``+ 0.0`` maps a ``-0.0`` total to the loop's ``0.0``.
    """
    values = np.asarray(values, dtype=np.float64)
    return float(np.cumsum(values)[-1]) + 0.0 if values.size else 0.0
