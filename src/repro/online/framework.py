"""The online distributed framework (paper Algorithm 2).

The sink partitions the tour into probe intervals of ``Γ`` slots.  At
the start of interval ``j`` it broadcasts a ``Probe``; sensors in range
reply with an ``Ack`` carrying their profile (power level, window,
location).  After the registration timer, the sink runs a pluggable
time-slot scheduler **A** over the registered sensors and the interval's
slots, broadcasts the schedule, collects the transmissions, broadcasts
``Finish``, and the registered sensors debit their energy.

Locality is what separates the online algorithms from their offline
counterparts, and two concrete mechanisms realise it here:

* a sensor only participates in interval ``j`` if it can hear the probe
  — i.e. the interval's *first* slot lies in its window.  Sensors whose
  window begins mid-interval lose those early slots (they catch the next
  probe);
* the scheduler sees only the current interval's slots and the residual
  budgets of currently-registered sensors — no lookahead.

Energy accounting threads residual budgets across intervals, so a
sensor registered in two consecutive intervals (Lemma 1 says at most
two, generically) cannot overspend its tour budget; the merged
tour-level allocation is therefore feasible for the *original* instance,
which the test suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Sequence

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.obs import get_logger, get_registry, phase
from repro.online.messages import MessageLog, MessageType
from repro.utils.intervals import SlotInterval

_log = get_logger("online.framework")

__all__ = ["IntervalScheduler", "IntervalRecord", "OnlineResult", "run_online"]


class IntervalScheduler(Protocol):
    """The pluggable time-slot scheduling algorithm ``A``.

    Receives the sub-instance of the current interval (slots re-based to
    0, windows already intersected, budgets = residual energies of the
    registered sensors) and returns an allocation over those slots.
    """

    def schedule(self, sub_instance: DataCollectionInstance) -> Allocation:
        """Allocate the interval's slots to the registered sensors."""
        ...


@dataclass
class IntervalRecord:
    """Diagnostics for one probe interval."""

    index: int
    interval: SlotInterval
    registered: List[int]
    assigned_slots: int
    collected_bits: float


@dataclass
class OnlineResult:
    """Outcome of one online tour.

    Attributes
    ----------
    allocation:
        Tour-level allocation (merged across intervals), feasible for
        the original instance.
    collected_bits:
        The objective value achieved.
    messages:
        Full protocol traffic accounting.
    intervals:
        Per-interval diagnostics (registration counts validate
        ``Σ N_j ≤ 2n``).
    residual_budgets:
        Energy left per sensor after the tour (J).
    """

    allocation: Allocation
    collected_bits: float
    messages: MessageLog
    intervals: List[IntervalRecord]
    residual_budgets: np.ndarray

    def registrations_per_sensor(self) -> np.ndarray:
        """How many intervals each sensor registered in (Lemma 1: ≤ 2
        for generic geometry)."""
        n = self.residual_budgets.shape[0]
        counts = np.zeros(n, dtype=np.int64)
        for rec in self.intervals:
            for sensor in rec.registered:
                counts[sensor] += 1
        return counts


def run_online(
    instance: DataCollectionInstance,
    gamma: int,
    scheduler: IntervalScheduler,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
) -> OnlineResult:
    """Execute Algorithm 2 for one tour.

    Parameters
    ----------
    instance:
        Ground truth of the tour (the framework itself only ever reads
        the local pieces a real sink could learn from Acks).
    gamma:
        Probe-interval length ``Γ`` in slots (``SinkTrajectory.gamma``).
    scheduler:
        The per-interval scheduling algorithm ``A``.
    loss_rate:
        Failure-injection knob (extension — the paper assumes reliable
        control traffic): each in-range sensor independently misses a
        given probe with this probability and sits the interval out.  A
        sensor spanning two intervals gets a second chance at the next
        probe.  0 reproduces the paper exactly.
    loss_seed:
        Seed for the loss draws (deterministic runs).

    Returns
    -------
    OnlineResult
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError(f"loss_rate must be in [0, 1], got {loss_rate}")
    loss_rng = np.random.default_rng(loss_seed)
    t = instance.num_slots
    residual = instance.budgets_array().copy()
    tour_owner = np.full(t, -1, dtype=np.int64)
    log = MessageLog()
    records: List[IntervalRecord] = []
    registry = get_registry()

    num_intervals = int(np.ceil(t / gamma))
    registry.inc("online.probe_rounds", float(num_intervals))
    _log.debug("online tour: %d slots, gamma=%d, %d intervals", t, gamma, num_intervals)
    for j in range(num_intervals):
        interval = SlotInterval(j * gamma, min((j + 1) * gamma, t) - 1)
        # --- Probe: heard by sensors in range at the interval start,
        # minus any injected control-channel losses.
        probe_slot = interval.start
        in_range = instance.slot_competitors(probe_slot).tolist()
        if loss_rate > 0.0 and in_range:
            heard = loss_rng.random(len(in_range)) >= loss_rate
            registered = [s for s, ok in zip(in_range, heard) if ok]
        else:
            registered = in_range
        log.record_broadcast(MessageType.PROBE, registered)
        if not registered:
            registry.inc("online.empty_intervals")
            records.append(IntervalRecord(j, interval, [], 0, 0.0))
            continue  # paper: tour would end if deployment were sparse here
        # --- Acks (registration).
        log.record_acks(registered)
        registry.inc("online.registrations", float(len(registered)))
        _log.debug(
            "interval %d: slots [%d, %d], %d registered",
            j, interval.start, interval.end, len(registered),
        )
        # --- Schedule the interval.
        with phase("online.instance_restrict"):
            sub_instance, parents = instance.restrict(
                interval, budgets=residual, sensor_ids=registered
            )
        with phase("online.interval_schedule", interval=j, registered=len(registered)):
            sub_allocation = scheduler.schedule(sub_instance)
        # The sub-instance's profits and costs equal the parent's
        # element for element, so its audit also scores the interval
        # and prices its debits.
        audit = sub_allocation.audit(sub_instance)
        audit.check()
        log.record_broadcast(MessageType.SCHEDULE, registered)
        # --- Transmissions: merge into the tour allocation, debit energy.
        sensors = np.asarray(parents, dtype=np.int64)[audit.sensors]
        slots = interval.start + audit.slots
        taken = tour_owner[slots] != -1
        if np.any(taken):  # pragma: no cover - intervals partition slots
            raise AssertionError(f"slot {int(slots[np.argmax(taken)])} scheduled twice")
        tour_owner[slots] = sensors
        # Unbuffered, so a sensor's debits apply in slot order.
        np.subtract.at(residual, sensors, sub_instance.flat_pairs().costs[audit.pairs])
        # --- Finish.
        log.record_broadcast(MessageType.FINISH, registered)
        records.append(IntervalRecord(j, interval, registered, int(slots.size), audit.objective))

    registry.inc("online.messages", float(log.total_messages))
    tour_allocation = Allocation(tour_owner)
    collected = tour_allocation.collected_bits(instance)
    _log.info(
        "online tour done: %.2f Mb over %d intervals, %d messages",
        collected / 1e6, num_intervals, log.total_messages,
    )
    return OnlineResult(
        allocation=tour_allocation,
        collected_bits=collected,
        messages=log,
        intervals=records,
        residual_budgets=residual,
    )
