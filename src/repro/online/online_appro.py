"""``Online_Appro`` — GAP-based per-interval scheduling (Section V.B).

The scheduler applied inside each probe interval is exactly the offline
approximation algorithm restricted to the registered sensors and the
interval's ``Γ`` slots: windows intersected with ``[a_j, b_j]``, budgets
replaced by residual energies.  Theorem 3: ``O(n)`` time and messages
over the tour.
"""

from __future__ import annotations

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.core.offline_appro import offline_appro
from repro.online.framework import OnlineResult, run_online

__all__ = ["GapIntervalScheduler", "online_appro"]


class GapIntervalScheduler:
    """Interval scheduler running the local-ratio GAP algorithm
    (:func:`repro.core.offline_appro.offline_appro`)."""

    def schedule(self, sub_instance: DataCollectionInstance) -> Allocation:
        """Pack the interval's slots with the local-ratio GAP pass."""
        return offline_appro(sub_instance)


def online_appro(instance: DataCollectionInstance, gamma: int) -> OnlineResult:
    """Run the full ``Online_Appro`` tour.

    Parameters
    ----------
    instance:
        The tour's DCMP instance.
    gamma:
        Probe-interval length ``Γ = ⌊R/(r_s·τ)⌋`` in slots.

    Returns
    -------
    OnlineResult
    """
    return run_online(instance, gamma, GapIntervalScheduler())
