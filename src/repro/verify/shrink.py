"""Greedy instance shrinking: failure -> minimal reproducer.

Given an instance and a predicate ("does this instance still exhibit
the failure?"), :func:`shrink_instance` repeatedly applies
structure-removing transformations — drop a sensor, truncate the
horizon, narrow a window, round the numeric payload — keeping each
change only when the predicate still holds, until a full round makes no
progress.  The result is the small, human-readable reproducer that gets
persisted to the fuzz corpus.

The predicate is treated as a black box; candidates whose construction
or evaluation raises are simply rejected (the fuzzer's predicate
already converts solver crashes into findings, so a genuine
crash-reproducing candidate still evaluates to ``True``).
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.instance import DataCollectionInstance
from repro.obs import get_logger

__all__ = ["shrink_instance"]

_log = get_logger("verify.shrink")

Predicate = Callable[[DataCollectionInstance], bool]

#: Hard cap on predicate evaluations per shrink.
DEFAULT_MAX_EVALS = 400


def _drop_sensor_candidates(
    instance: DataCollectionInstance,
) -> Iterator[DataCollectionInstance]:
    """Every instance obtainable by removing one sensor."""
    n = instance.num_sensors
    if n <= 1:
        return
    starts, ends = instance.window_bounds()
    for k in range(n):
        ids = np.delete(np.arange(n), k)
        yield instance.gather(ids, starts[ids], ends[ids])


def _truncate_horizon_candidates(
    instance: DataCollectionInstance,
) -> Iterator[DataCollectionInstance]:
    """Drop the last or the first slot (windows clipped, sensors whose
    window vanishes become unreachable)."""
    t = instance.num_slots
    if t <= 1:
        return
    starts, ends = instance.window_bounds()
    ids = np.arange(instance.num_sensors)
    for first, last in ((0, t - 2), (1, t - 1)):
        yield instance.gather(
            ids, np.maximum(starts, first), np.minimum(ends, last), base=first, num_slots=t - 1
        )


def _narrow_window_candidates(
    instance: DataCollectionInstance,
) -> Iterator[DataCollectionInstance]:
    """Trim one slot off one sensor's window (from either end)."""
    starts, ends = instance.window_bounds()
    ids = np.arange(instance.num_sensors)
    for k in np.flatnonzero(ends > starts).tolist():
        trimmed = ends.copy()
        trimmed[k] -= 1
        yield instance.gather(ids, starts, trimmed)
        trimmed = starts.copy()
        trimmed[k] += 1
        yield instance.gather(ids, trimmed, ends)


def _round_candidates(
    instance: DataCollectionInstance,
) -> Iterator[DataCollectionInstance]:
    """Round the numeric payload to friendlier values (whole rates,
    2-decimal powers/budgets) — a big readability win when it keeps the
    failure alive."""
    flat = instance.flat_pairs()
    budgets = instance.budgets_array()
    rounded = (np.round(flat.rates), np.round(flat.powers, 2), np.round(budgets, 2))
    if not all(map(np.array_equal, rounded, (flat.rates, flat.powers, budgets))):
        yield DataCollectionInstance(
            instance.num_slots, instance.slot_duration, *instance.window_bounds(), *rounded
        )


#: Transformation passes in the order tried (coarsest first).
_PASSES = (
    _drop_sensor_candidates,
    _truncate_horizon_candidates,
    _narrow_window_candidates,
    _round_candidates,
)


def _holds(predicate: Predicate, candidate: DataCollectionInstance) -> bool:
    try:
        return bool(predicate(candidate))
    except Exception:  # noqa: BLE001 - a broken candidate is just "no"
        return False


def shrink_instance(
    instance: DataCollectionInstance,
    predicate: Predicate,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> DataCollectionInstance:
    """Greedily minimise ``instance`` while ``predicate`` stays true.

    Returns the smallest instance found (possibly the input itself when
    nothing can be removed).  ``predicate(instance)`` is assumed true on
    entry; if it is not, the input is returned unchanged.
    """
    if not _holds(predicate, instance):
        _log.warning("shrink: predicate false on the initial instance; keeping it")
        return instance
    current = instance
    evals = 0
    progress = True
    while progress and evals < max_evals:
        progress = False
        for candidates_of in _PASSES:
            # Restart a pass whenever it fires: indices shift after a
            # removal, so regenerating candidates is the simple safe loop.
            fired = True
            while fired and evals < max_evals:
                fired = False
                for candidate in candidates_of(current):
                    evals += 1
                    if _holds(predicate, candidate):
                        current = candidate
                        progress = True
                        fired = True
                        break
                    if evals >= max_evals:
                        break
    _log.info(
        "shrink: (n=%d, T=%d) -> (n=%d, T=%d) in %d evals",
        instance.num_sensors,
        instance.num_slots,
        current.num_sensors,
        current.num_slots,
        evals,
    )
    return current
