"""The data collection maximization problem instance (Section II.D).

A :class:`DataCollectionInstance` is the pure combinatorial object every
algorithm consumes:

* ``T`` time slots of duration ``tau``;
* per sensor ``i``: the consecutive availability window ``A(v_i)``, the
  per-slot transmission rate ``r_{i,j}`` (bits/s), the per-slot
  transmission power ``P_{i,j}`` (W), and the tour energy budget
  ``P(v_i)`` (J).

Derived quantities used throughout: the **profit** of giving slot ``j``
to sensor ``i`` is ``r_{i,j} · tau`` bits, and its **cost** against the
sensor's budget is ``P_{i,j} · tau`` joules — exactly the objective and
constraint (4) of the paper's integer program.

Construction from the physical layers happens in
:meth:`DataCollectionInstance.from_network`, which derives windows from
geometry and rates/powers from the radio table in one vectorised pass
over every (sensor, slot) pair at once.

The instance also caches its **flat pair arrays** (one entry per
in-window (sensor, slot) pair, sensor-major); solvers, baselines and the
allocation accounting consume these instead of re-deriving per-sensor
views in Python loops.  All cached arrays are immutable (``writeable``
cleared).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.network.network import SensorNetwork
from repro.network.path import SinkTrajectory
from repro.network.radio import RateTable
from repro.utils.arrays import group_offsets, ragged_arange
from repro.utils.intervals import SlotInterval
from repro.utils.validation import check_finite, check_positive

__all__ = ["SensorSlotData", "DataCollectionInstance", "FlatPairs"]

_EMPTY_F = np.zeros(0, dtype=np.float64)
_EMPTY_F.flags.writeable = False


@dataclass(frozen=True)
class SensorSlotData:
    """Per-sensor slot data aligned with its availability window.

    ``rates[k]`` / ``powers[k]`` describe slot ``window.start + k``.
    Arrays are immutable (flags cleared at construction).
    """

    window: Optional[SlotInterval]
    rates: np.ndarray  # bits/s, shape (|A|,)
    powers: np.ndarray  # watts, shape (|A|,)
    budget: float  # joules

    def __post_init__(self) -> None:
        size = 0 if self.window is None else len(self.window)
        if self.rates.shape != (size,) or self.powers.shape != (size,):
            raise ValueError(
                f"rates/powers must have shape ({size},); got "
                f"{self.rates.shape} / {self.powers.shape}"
            )
        check_finite(self.rates, "rates")
        check_finite(self.powers, "powers")
        if np.any(self.rates < 0) or np.any(self.powers < 0):
            raise ValueError("rates and powers must be non-negative")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        self.rates.flags.writeable = False
        self.powers.flags.writeable = False

    @classmethod
    def _trusted(
        cls,
        window: Optional[SlotInterval],
        rates: np.ndarray,
        powers: np.ndarray,
        budget: float,
    ) -> "SensorSlotData":
        """Construct without per-object validation.

        For internal bulk construction only: the caller has already
        validated the data in one vectorised pass and guarantees the
        arrays are float64, correctly sized and **non-writeable**.
        """
        data = object.__new__(cls)
        object.__setattr__(data, "window", window)
        object.__setattr__(data, "rates", rates)
        object.__setattr__(data, "powers", powers)
        object.__setattr__(data, "budget", budget)
        return data

    @property
    def num_slots(self) -> int:
        """``|A(v_i)|``."""
        return 0 if self.window is None else len(self.window)

    def slot_indices(self) -> np.ndarray:
        """Global slot indices of the window (empty when unreachable)."""
        if self.window is None:
            return np.zeros(0, dtype=np.int64)
        return self.window.slots()

    def local_index(self, slot: int) -> int:
        """Map a global slot index into this sensor's arrays."""
        if self.window is None or slot not in self.window:
            raise KeyError(f"slot {slot} not in window {self.window}")
        return slot - self.window.start


class FlatPairs(NamedTuple):
    """Flat per-(sensor, slot) pair arrays of an instance (sensor-major,
    slots ascending within a sensor).  All arrays are immutable and
    share length ``Σ_i |A(v_i)|``; ``offsets`` has shape ``(n + 1,)``
    and sensor ``i``'s pairs live at ``[offsets[i], offsets[i+1])``."""

    sensor: np.ndarray  # int64 — sensor id of each pair
    slot: np.ndarray  # int64 — global slot index of each pair
    rates: np.ndarray  # float64 — r_{i,j} in bits/s
    powers: np.ndarray  # float64 — P_{i,j} in watts
    profits: np.ndarray  # float64 — r_{i,j}·tau in bits
    costs: np.ndarray  # float64 — P_{i,j}·tau in joules
    offsets: np.ndarray  # int64, (n+1,) — per-sensor spans


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class DataCollectionInstance:
    """An instance of the data collection maximization problem.

    Parameters
    ----------
    num_slots:
        ``T``, slots per tour.
    slot_duration:
        ``tau`` in seconds.
    sensors:
        One :class:`SensorSlotData` per sensor, index = sensor id.
    """

    def __init__(
        self,
        num_slots: int,
        slot_duration: float,
        sensors: Sequence[SensorSlotData],
    ):
        if num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {num_slots}")
        check_positive(slot_duration, "slot_duration")
        for i, s in enumerate(sensors):
            if s.window is not None and (s.window.start < 0 or s.window.end >= num_slots):
                raise ValueError(
                    f"sensor {i} window {s.window} outside [0, {num_slots - 1}]"
                )
        self.num_slots = int(num_slots)
        self.slot_duration = float(slot_duration)
        self.sensors: Tuple[SensorSlotData, ...] = tuple(sensors)
        # Lazily built caches (see the corresponding accessors).
        self._competitors: Optional[List[np.ndarray]] = None
        self._flat: Optional[FlatPairs] = None
        self._window_bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._budgets: Optional[np.ndarray] = None
        self._order: Optional[List[int]] = None
        self._slot_groups: Optional[Tuple[np.ndarray, ...]] = None
        # Memoised DCMP→GAP reduction (owned by repro.core.offline_appro).
        self._dcmp_gap = None
        # Memoised DCMP LP bound in bits (owned by repro.core.lp).
        self._lp_bound: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction from the physical layers
    # ------------------------------------------------------------------
    @classmethod
    def from_network(
        cls,
        network: SensorNetwork,
        trajectory: SinkTrajectory,
        rate_table: RateTable,
        budgets: Union[np.ndarray, Sequence[float]],
    ) -> "DataCollectionInstance":
        """Derive the combinatorial instance from physics.

        For every sensor: its window ``A(v)`` comes from the trajectory's
        coverage geometry with ``R = rate_table.max_range``; for each
        slot in the window the sensor–sink distance at the slot anchor
        determines ``r_{i,j}`` and ``P_{i,j}`` via the rate table.

        The whole derivation is one vectorised pass over the flat
        (sensor, slot) pair set: anchor arcs, anchor points, distances
        and the rate/power lookups each happen in a single array op, and
        the per-sensor views are zero-copy slices of the flat arrays.

        Notes
        -----
        A window slot whose anchor lies outside ``R`` gets rate 0; it
        stays in the window but no rational algorithm assigns it.  On the
        straight road that happens only marginally, at a window end (the
        window is computed from continuous coverage, the anchor is a
        point sample).  On a planned tour the window encloses every pass
        of the sink through the sensor's range, so the slots between two
        passes are rate 0 as well (see ``docs/PLANNING.md``).
        """
        budgets = np.asarray(budgets, dtype=np.float64)
        if budgets.shape != (network.num_sensors,):
            raise ValueError(
                f"budgets must have shape ({network.num_sensors},), got {budgets.shape}"
            )
        n = network.num_sensors
        positions = np.atleast_2d(np.asarray(network.positions, dtype=np.float64))
        windows = trajectory.availability(network.positions, rate_table.max_range)
        starts = np.fromiter(
            (0 if w is None else w.start for w in windows), np.int64, count=n
        )
        counts = np.fromiter(
            (0 if w is None else len(w) for w in windows), np.int64, count=n
        )
        offsets = group_offsets(counts)

        # One flat entry per in-window (sensor, slot) pair, sensor-major.
        sensor_rep = np.repeat(np.arange(n, dtype=np.int64), counts)
        slots_flat = np.repeat(starts, counts) + ragged_arange(counts)
        arcs = trajectory.arc_at_slot(slots_flat)
        pts = np.atleast_2d(trajectory.path.point_at(arcs))
        dists = np.hypot(
            positions[sensor_rep, 0] - pts[:, 0],
            positions[sensor_rep, 1] - pts[:, 1],
        )
        rates_flat = np.asarray(rate_table.rate_at(dists), dtype=np.float64)
        powers_flat = np.asarray(rate_table.power_at(dists), dtype=np.float64)

        # Bulk validation replacing the per-sensor __post_init__ checks.
        check_finite(rates_flat, "rates")
        check_finite(powers_flat, "powers")
        if np.any(rates_flat < 0) or np.any(powers_flat < 0):
            raise ValueError("rates and powers must be non-negative")
        _freeze(rates_flat)
        _freeze(powers_flat)
        budgets = np.maximum(budgets, 0.0)
        budget_list = budgets.tolist()

        bounds = offsets.tolist()
        sensors = [
            SensorSlotData._trusted(
                w,
                rates_flat[bounds[i] : bounds[i + 1]],
                powers_flat[bounds[i] : bounds[i + 1]],
                budget_list[i],
            )
            for i, w in enumerate(windows)
        ]
        instance = cls(trajectory.num_slots, trajectory.slot_duration, sensors)
        tau = instance.slot_duration
        instance._flat = FlatPairs(
            sensor=_freeze(sensor_rep),
            slot=_freeze(slots_flat),
            rates=rates_flat,
            powers=powers_flat,
            profits=_freeze(rates_flat * tau),
            costs=_freeze(powers_flat * tau),
            offsets=_freeze(offsets),
        )
        instance._budgets = _freeze(budgets)
        return instance

    # ------------------------------------------------------------------
    # Core quantities
    # ------------------------------------------------------------------
    @property
    def num_sensors(self) -> int:
        """``n``."""
        return len(self.sensors)

    def profit(self, sensor: int, slot: int) -> float:
        """``r_{i,j} · tau`` bits for assigning ``slot`` to ``sensor``."""
        data = self.sensors[sensor]
        return float(data.rates[data.local_index(slot)]) * self.slot_duration

    def cost(self, sensor: int, slot: int) -> float:
        """``P_{i,j} · tau`` joules the assignment charges the budget."""
        data = self.sensors[sensor]
        return float(data.powers[data.local_index(slot)]) * self.slot_duration

    def profits_of(self, sensor: int) -> np.ndarray:
        """Profit array aligned with the sensor's window (bits)."""
        if self._flat is not None:
            lo, hi = self._flat.offsets[sensor], self._flat.offsets[sensor + 1]
            return self._flat.profits[lo:hi]
        return self.sensors[sensor].rates * self.slot_duration

    def costs_of(self, sensor: int) -> np.ndarray:
        """Cost array aligned with the sensor's window (joules)."""
        if self._flat is not None:
            lo, hi = self._flat.offsets[sensor], self._flat.offsets[sensor + 1]
            return self._flat.costs[lo:hi]
        return self.sensors[sensor].powers * self.slot_duration

    def budget_of(self, sensor: int) -> float:
        """``P(v_i)`` joules."""
        return self.sensors[sensor].budget

    def window_of(self, sensor: int) -> Optional[SlotInterval]:
        """``A(v_i)`` as a slot interval (``None`` if unreachable)."""
        return self.sensors[sensor].window

    # ------------------------------------------------------------------
    # Cached array views
    # ------------------------------------------------------------------
    def flat_pairs(self) -> FlatPairs:
        """The instance's flat (sensor, slot) pair arrays (cached).

        Sensor-major, slots ascending within each sensor — the layout
        every vectorised consumer (GAP reduction, baselines, copies
        graph, allocation accounting) indexes into.
        """
        if self._flat is None:
            counts = np.fromiter(
                (s.num_slots for s in self.sensors), np.int64, count=self.num_sensors
            )
            offsets = group_offsets(counts)
            sensor_rep = np.repeat(np.arange(self.num_sensors, dtype=np.int64), counts)
            starts = np.fromiter(
                (0 if s.window is None else s.window.start for s in self.sensors),
                np.int64,
                count=self.num_sensors,
            )
            slots_flat = np.repeat(starts, counts) + ragged_arange(counts)
            if self.num_sensors:
                rates_flat = np.concatenate([s.rates for s in self.sensors])
                powers_flat = np.concatenate([s.powers for s in self.sensors])
            else:
                rates_flat = _EMPTY_F
                powers_flat = _EMPTY_F
            tau = self.slot_duration
            self._flat = FlatPairs(
                sensor=_freeze(sensor_rep),
                slot=_freeze(slots_flat),
                rates=_freeze(np.asarray(rates_flat, dtype=np.float64)),
                powers=_freeze(np.asarray(powers_flat, dtype=np.float64)),
                profits=_freeze(rates_flat * tau),
                costs=_freeze(powers_flat * tau),
                offsets=_freeze(offsets),
            )
        return self._flat

    def budgets_array(self) -> np.ndarray:
        """``(n,)`` budgets ``P(v_i)`` in joules (cached, immutable)."""
        if self._budgets is None:
            self._budgets = _freeze(
                np.fromiter(
                    (s.budget for s in self.sensors),
                    np.float64,
                    count=self.num_sensors,
                )
            )
        return self._budgets

    def window_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` int64 arrays of the windows (cached).

        Unreachable sensors get the empty convention ``start = 0``,
        ``end = -1`` so containment tests (``start <= j <= end``) are
        vacuously false.
        """
        if self._window_bounds is None:
            starts = np.fromiter(
                (0 if s.window is None else s.window.start for s in self.sensors),
                np.int64,
                count=self.num_sensors,
            )
            ends = np.fromiter(
                (-1 if s.window is None else s.window.end for s in self.sensors),
                np.int64,
                count=self.num_sensors,
            )
            self._window_bounds = (_freeze(starts), _freeze(ends))
        return self._window_bounds

    def pair_profits(self, sensors: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Vectorised ``profit(sensor, slot)`` lookup over pair arrays.

        Raises ``KeyError`` (matching the scalar accessor) if any pair
        falls outside its sensor's window.
        """
        return self._pair_lookup(sensors, slots, self.flat_pairs().profits)

    def pair_costs(self, sensors: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Vectorised ``cost(sensor, slot)`` lookup over pair arrays."""
        return self._pair_lookup(sensors, slots, self.flat_pairs().costs)

    def _pair_lookup(
        self, sensors: np.ndarray, slots: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        sensors = np.asarray(sensors, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        starts, ends = self.window_bounds()
        flat = self.flat_pairs()
        bad = (slots < starts[sensors]) | (slots > ends[sensors])
        if np.any(bad):
            k = int(np.argmax(bad))
            raise KeyError(
                f"slot {int(slots[k])} not in window {self.window_of(int(sensors[k]))}"
            )
        return values[flat.offsets[sensors] + (slots - starts[sensors])]

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def slot_competitors(self, slot: int) -> np.ndarray:
        """Sensor ids whose window contains ``slot`` (ascending)."""
        return self._competitor_table()[slot]

    def _slot_grouped(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pair data regrouped slot-major: ``(bounds, sensors, profits,
        costs)`` where slot ``j``'s competitors (ascending sensor id)
        occupy ``[bounds[j], bounds[j+1])`` of the flat arrays."""
        if self._slot_groups is None:
            flat = self.flat_pairs()
            # Stable sort by slot keeps sensors ascending within a slot
            # (the flat layout is sensor-major).
            order = np.argsort(flat.slot, kind="stable")
            sorted_slots = flat.slot[order]
            bounds = np.searchsorted(
                sorted_slots, np.arange(self.num_slots + 1, dtype=np.int64)
            )
            self._slot_groups = (
                _freeze(bounds),
                _freeze(flat.sensor[order]),
                _freeze(flat.profits[order]),
                _freeze(flat.costs[order]),
            )
        return self._slot_groups

    def _competitor_table(self) -> List[np.ndarray]:
        if self._competitors is None:
            bounds, sensors, _, _ = self._slot_grouped()
            edges = bounds.tolist()
            self._competitors = [
                sensors[edges[j] : edges[j + 1]] for j in range(self.num_slots)
            ]
        return self._competitors

    def sensor_order(self) -> List[int]:
        """The paper's processing order: ascending start slot, then end
        slot, ties broken by id (Section IV.A).  Unreachable sensors go
        last.  Cached after the first call."""
        if self._order is None:
            starts, ends = self.window_bounds()
            unreachable = ends < starts
            sentinel = self.num_slots + 1
            start_key = np.where(unreachable, sentinel, starts)
            end_key = np.where(unreachable, sentinel, ends)
            ids = np.arange(self.num_sensors, dtype=np.int64)
            # lexsort: last key is primary — (start, end, id) ascending.
            self._order = np.lexsort((ids, end_key, start_key)).tolist()
        return list(self._order)

    def restrict(
        self,
        interval: SlotInterval,
        budgets: Optional[np.ndarray] = None,
        sensor_ids: Optional[Sequence[int]] = None,
    ) -> Tuple["DataCollectionInstance", List[int]]:
        """Sub-instance over one probe interval (online scheduling).

        Windows are intersected with ``interval``; sensors whose
        intersection is empty are dropped.  Slot indices in the
        sub-instance are re-based so slot 0 is ``interval.start``.

        Parameters
        ----------
        interval:
            The probe interval ``[a_j, b_j]``.
        budgets:
            Optional replacement budgets (length ``n`` over the *parent*
            ids) — used online with residual energy; defaults to the
            parent budgets.
        sensor_ids:
            Restrict to these parent sensors (e.g. the registered set);
            default all.

        Returns
        -------
        (sub_instance, parent_ids):
            ``parent_ids[k]`` is the parent sensor id of sub-sensor ``k``.
        """
        if interval.start < 0 or interval.end >= self.num_slots:
            raise ValueError(f"interval {interval} outside instance horizon")
        candidates = range(self.num_sensors) if sensor_ids is None else sensor_ids
        subs: List[SensorSlotData] = []
        parents: List[int] = []
        for i in candidates:
            data = self.sensors[i]
            if data.window is None:
                continue
            inter = data.window.intersection(interval)
            if inter is None:
                continue
            lo = inter.start - data.window.start
            hi = inter.end - data.window.start
            budget = float(budgets[i]) if budgets is not None else data.budget
            # Parent arrays are immutable, so the slices are safe
            # zero-copy (and themselves non-writeable) views.
            subs.append(
                SensorSlotData._trusted(
                    inter.shift(-interval.start),
                    data.rates[lo : hi + 1],
                    data.powers[lo : hi + 1],
                    max(budget, 0.0),
                )
            )
            parents.append(i)
        return (
            DataCollectionInstance(len(interval), self.slot_duration, subs),
            parents,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        reachable = sum(1 for s in self.sensors if s.window is not None)
        return (
            f"DataCollectionInstance(n={self.num_sensors} ({reachable} reachable), "
            f"T={self.num_slots}, tau={self.slot_duration})"
        )
