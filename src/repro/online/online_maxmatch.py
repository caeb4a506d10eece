"""``Online_MaxMatch`` — matching-based per-interval scheduling (Section VI).

For the fixed-power special case the interval scheduler builds the
bipartite graph ``G' = ({x_i^{(k)}} ∪ Y, E')`` of the paper: each
registered sensor contributes
``n_i' = min(Γ, |[i'_s, i'_e]|, ⌊P(v_i)/(P'·τ)⌋)`` node copies (the
scheduler passes sensors as capacity-``n_i'`` nodes, a b-matching, and
:func:`~repro.core.matching.max_weight_b_matching` makes the copies for
its assignment), each with an edge of weight ``r_{i,j}·τ`` to every slot
of its clipped window.  A maximum-weight matching then *is* the optimal
interval schedule.  Theorem 4: ``O(n^{1.5})`` time, ``O(n)`` messages.

The interval graph is the Section-VI graph of the interval's
sub-instance (:func:`repro.core.offline_maxmatch.build_matching_edges`):
a sub-instance spans at most ``Γ`` slots, so its window term already
carries the ``Γ`` cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.core.matching import max_weight_b_matching
from repro.core.offline_maxmatch import build_matching_edges, fixed_power_of
from repro.online.framework import OnlineResult, run_online

__all__ = ["MatchingIntervalScheduler", "online_maxmatch"]


@dataclass
class MatchingIntervalScheduler:
    """Interval scheduler solving a max-weight b-matching.

    Parameters
    ----------
    fixed_power:
        The single transmission power ``P'`` (W).  ``None`` auto-detects
        it per interval from the sub-instance (requiring single-power
        data).
    """

    fixed_power: Optional[float] = None

    def schedule(self, sub_instance: DataCollectionInstance) -> Allocation:
        """Optimal interval schedule via maximum-weight matching."""
        edges, caps = build_matching_edges(sub_instance, self.fixed_power)
        result = max_weight_b_matching(edges, caps, sub_instance.num_slots)
        return Allocation(result.right_of(sub_instance.num_slots))


def online_maxmatch(
    instance: DataCollectionInstance,
    gamma: int,
    fixed_power: Optional[float] = None,
) -> OnlineResult:
    """Run the full ``Online_MaxMatch`` tour.

    Parameters
    ----------
    instance:
        The tour's DCMP instance (single transmission power).
    gamma:
        Probe-interval length ``Γ`` in slots.
    fixed_power:
        ``P'`` in watts; auto-detected when ``None``.

    Returns
    -------
    OnlineResult
    """
    if fixed_power is None:
        if np.any(instance.flat_pairs().rates > 0):
            fixed_power = fixed_power_of(instance)
        else:
            # Nothing can ever transmit: run the framework anyway so the
            # message accounting (all-empty intervals) stays meaningful.
            fixed_power = 1.0
    scheduler = MatchingIntervalScheduler(fixed_power=fixed_power)
    return run_online(instance, gamma, scheduler)
