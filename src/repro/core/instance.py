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

The instance stores one form only: the window bounds (two ``(n,)``
arrays), the budgets (one ``(n,)`` array) and the :class:`FlatPairs` —
one entry per in-window (sensor, slot) pair, sensor-major, with its
rate, power, profit and cost.  Solvers, baselines and the allocation
accounting index these arrays directly.  All of them are immutable
(``writeable`` cleared).

One public constructor takes that form as arrays and checks it in
bulk: ``DataCollectionInstance(num_slots, slot_duration, starts, ends,
rates, powers, budgets)``.  :meth:`DataCollectionInstance.from_network`
derives the arrays from geometry and the radio table in one vectorised
pass over every pair and hands them to it.
:meth:`DataCollectionInstance.gather` carves a sub-instance out of an
instance's arrays (chosen sensors, windows nested in theirs, slots
re-based) without checking again; :meth:`~DataCollectionInstance.restrict`,
the fuzzer's relabelling and the shrinker's passes all go through it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.network.network import SensorNetwork
from repro.network.path import SinkTrajectory
from repro.network.radio import RateTable
from repro.utils.arrays import group_offsets
from repro.utils.intervals import SlotInterval
from repro.utils.validation import check_positive

__all__ = ["DataCollectionInstance", "FlatPairs"]


class _SensorReading(NamedTuple):
    """One sensor as :attr:`DataCollectionInstance.sensors` reports it."""

    num_slots: int  # |A(v_i)|


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


def _pair_layout(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, sensor, slot)`` of the flat pairs of windows
    ``[starts[i], ends[i]]``: sensor-major, slots ascending within a
    sensor.  An empty window ``(0, -1)`` contributes no pair."""
    counts = ends - starts + 1
    offsets = group_offsets(counts)
    sensor = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    # Pair p of sensor i is slot starts[i] + (p - offsets[i]).
    slot = np.repeat(starts - offsets[:-1], counts)
    slot += np.arange(offsets[-1], dtype=np.int64)
    return offsets, sensor, slot


class DataCollectionInstance:
    """An instance of the data collection maximization problem.

    Parameters
    ----------
    num_slots:
        ``T``, slots per tour.
    slot_duration:
        ``tau`` in seconds.
    starts, ends:
        ``(n,)`` window bounds: sensor ``i``'s window ``A(v_i)`` is
        ``[starts[i], ends[i]]`` within ``[0, T-1]``, and ``(0, -1)`` when
        it is unreachable.
    rates, powers:
        ``r_{i,j}`` (bits/s) and ``P_{i,j}`` (W) of every in-window pair,
        sensor-major with slots ascending (length ``Σ_i |A(v_i)|``).
    budgets:
        ``(n,)`` budgets ``P(v_i)`` in joules.

    Everything is checked at once, and a ``ValueError`` names the first
    offending sensor.  Arrays that already have the right dtype are kept
    without a copy and frozen.
    """

    def __init__(
        self,
        num_slots: int,
        slot_duration: float,
        starts: np.ndarray,
        ends: np.ndarray,
        rates: np.ndarray,
        powers: np.ndarray,
        budgets: np.ndarray,
    ):
        if num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {num_slots}")
        check_positive(slot_duration, "slot_duration")
        starts, ends = np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64)
        rates, powers = np.asarray(rates, dtype=np.float64), np.asarray(powers, dtype=np.float64)
        budgets = np.asarray(budgets, dtype=np.float64)
        n = budgets.size
        if budgets.ndim != 1 or starts.shape != (n,) or ends.shape != (n,):
            raise ValueError(
                "starts, ends and budgets must be 1-D with one entry per sensor; got "
                f"shapes {starts.shape}, {ends.shape}, {budgets.shape}"
            )
        reachable = starts <= ends
        bad = np.where(
            reachable, (starts < 0) | (ends >= num_slots), (starts != 0) | (ends != -1)
        )
        if bad.any():
            i = int(np.argmax(bad))
            window = f"[{starts[i]}, {ends[i]}]"
            raise ValueError(
                f"sensor {i} window {window} outside [0, {num_slots - 1}]"
                if reachable[i]
                else f"sensor {i} window {window} is empty but not (0, -1)"
            )
        layout = _pair_layout(starts, ends)
        size = layout[1].size
        if rates.shape != (size,) or powers.shape != (size,):
            raise ValueError(
                f"rates/powers must have shape ({size},), one entry per in-window "
                f"pair; got {rates.shape} / {powers.shape}"
            )
        for name, values in (("rate", rates), ("power", powers)):
            bad = ~(np.isfinite(values) & (values >= 0))
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(
                    f"sensor {layout[1][k]} {name} at slot {layout[2][k]} is "
                    f"{float(values[k])!r}; rates and powers must be finite and >= 0"
                )
        bad = ~(np.isfinite(budgets) & (budgets >= 0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"sensor {i} budget is {float(budgets[i])!r}; it must be finite and >= 0"
            )
        self._set_arrays(num_slots, slot_duration, starts, ends, layout, rates, powers, budgets)

    def _set_arrays(
        self,
        num_slots: int,
        slot_duration: float,
        starts: np.ndarray,
        ends: np.ndarray,
        layout: Tuple[np.ndarray, np.ndarray, np.ndarray],
        rates: np.ndarray,
        powers: np.ndarray,
        budgets: np.ndarray,
    ) -> "DataCollectionInstance":
        """The one initialiser behind every way in: store the window
        bounds, the flat pairs (``layout`` is :func:`_pair_layout` of the
        windows, ``rates``/``powers`` are aligned with it) and the
        budgets, all frozen.  The data is checked already: by the
        constructor, or when the instance it was gathered from was built."""
        offsets, sensor, slot = layout
        self.num_slots = int(num_slots)
        self.slot_duration = float(slot_duration)
        tau = self.slot_duration
        self._window_bounds = (_freeze(starts), _freeze(ends))
        self._flat = FlatPairs(
            sensor=_freeze(sensor),
            slot=_freeze(slot),
            rates=_freeze(rates),
            powers=_freeze(powers),
            profits=_freeze(rates * tau),
            costs=_freeze(powers * tau),
            offsets=_freeze(offsets),
        )
        self._budgets = _freeze(budgets)
        # Lazily built caches (see the corresponding accessors).
        self._competitors: Optional[List[np.ndarray]] = None
        self._order: Optional[List[int]] = None
        self._slot_sort: Optional[np.ndarray] = None
        self._slot_groups: Optional[Tuple[np.ndarray, ...]] = None
        # Memoised DCMP→GAP reduction (owned by repro.core.offline_appro).
        self._dcmp_gap = None
        # Memoised DCMP LP bound in bits (owned by repro.core.lp).
        self._lp_bound: Optional[float] = None
        return self

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
        and the rate/power lookups each happen in a single array op.  The
        arrays then go through the checked constructor, budgets clipped
        at 0 first.

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
        positions = np.atleast_2d(np.asarray(network.positions, dtype=np.float64))
        starts, ends = trajectory.availability(positions, rate_table.max_range)
        _, sensor, slot = _pair_layout(starts, ends)
        pts = np.atleast_2d(trajectory.path.point_at(trajectory.arc_at_slot(slot)))
        dists = np.hypot(
            positions[sensor, 0] - pts[:, 0],
            positions[sensor, 1] - pts[:, 1],
        )
        return cls(
            trajectory.num_slots,
            trajectory.slot_duration,
            starts,
            ends,
            rate_table.rate_at(dists),
            rate_table.power_at(dists),
            np.maximum(np.asarray(budgets, dtype=np.float64), 0.0),
        )

    # ------------------------------------------------------------------
    # Core quantities
    # ------------------------------------------------------------------
    @property
    def num_sensors(self) -> int:
        """``n``."""
        return int(self._budgets.size)

    @property
    def sensors(self) -> Tuple[_SensorReading, ...]:
        """Read-only records, one per sensor, built at each read; each
        carries only ``num_slots`` = ``|A(v_i)|``.  Kept for the
        benchmark's pair count; ``flat_pairs().offsets`` is the array
        form."""
        return tuple(map(_SensorReading, np.diff(self._flat.offsets).tolist()))

    def _pair_index(self, sensor: int, slot: int) -> int:
        """Flat index of the pair ``(sensor, slot)``; ``KeyError`` when
        ``slot`` is outside the sensor's window."""
        # Index like a sequence of sensors: negative ids count from the
        # end, and an id out of range raises IndexError.
        sensor = range(self.num_sensors)[sensor]
        starts, ends = self._window_bounds
        start = int(starts[sensor])
        if not start <= slot <= int(ends[sensor]):
            raise KeyError(f"slot {slot} not in window {self.window_of(sensor)}")
        return int(self._flat.offsets[sensor]) + slot - start

    def profit(self, sensor: int, slot: int) -> float:
        """``r_{i,j} · tau`` bits for assigning ``slot`` to ``sensor``."""
        return float(self._flat.profits[self._pair_index(sensor, slot)])

    def cost(self, sensor: int, slot: int) -> float:
        """``P_{i,j} · tau`` joules the assignment charges the budget."""
        return float(self._flat.costs[self._pair_index(sensor, slot)])

    def budget_of(self, sensor: int) -> float:
        """``P(v_i)`` joules."""
        return float(self._budgets[sensor])

    def window_of(self, sensor: int) -> Optional[SlotInterval]:
        """``A(v_i)`` as a slot interval (``None`` if unreachable)."""
        starts, ends = self._window_bounds
        start, end = int(starts[sensor]), int(ends[sensor])
        return SlotInterval(start, end) if start <= end else None

    # ------------------------------------------------------------------
    # The stored arrays
    # ------------------------------------------------------------------
    def flat_pairs(self) -> FlatPairs:
        """The instance's flat (sensor, slot) pair arrays.

        Sensor-major, slots ascending within each sensor — the layout
        every vectorised consumer (GAP reduction, baselines, copies
        graph, allocation accounting) indexes into.
        """
        return self._flat

    def budgets_array(self) -> np.ndarray:
        """``(n,)`` budgets ``P(v_i)`` in joules (immutable)."""
        return self._budgets

    def window_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` int64 arrays of the windows (immutable).

        Unreachable sensors get the empty convention ``start = 0``,
        ``end = -1`` so containment tests (``start <= j <= end``) are
        vacuously false.
        """
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

    def _slot_order(self) -> np.ndarray:
        """Stable ``argsort`` of the pair slots, cached (``dcmp_to_gap`` shares it)."""
        if self._slot_sort is None:
            self._slot_sort = _freeze(np.argsort(self._flat.slot, kind="stable"))
        return self._slot_sort

    def _slot_grouped(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pair data regrouped slot-major: ``(bounds, sensors, profits,
        costs)`` where slot ``j``'s competitors (ascending sensor id)
        occupy ``[bounds[j], bounds[j+1])`` of the flat arrays."""
        if self._slot_groups is None:
            flat = self.flat_pairs()
            order = self._slot_order()
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
            parent budgets.  Negative budgets are clipped at 0.
        sensor_ids:
            Restrict to these parent sensors (e.g. the registered set),
            kept in the given order; default all.

        Returns
        -------
        (sub_instance, parent_ids):
            ``parent_ids[k]`` is the parent sensor id of sub-sensor ``k``.
        """
        if interval.start < 0 or interval.end >= self.num_slots:
            raise ValueError(f"interval {interval} outside instance horizon")
        starts, ends = self._window_bounds
        if sensor_ids is None:
            candidates = np.arange(self.num_sensors, dtype=np.int64)
        else:
            candidates = np.asarray(sensor_ids, dtype=np.int64)
        first = np.maximum(starts[candidates], interval.start)
        last = np.minimum(ends[candidates], interval.end)
        keep = first <= last
        parents = candidates[keep]
        parent_budgets = self._budgets if budgets is None else np.asarray(budgets, dtype=np.float64)
        sub = self.gather(
            parents,
            first[keep],
            last[keep],
            base=interval.start,
            num_slots=len(interval),
            budgets=np.maximum(parent_budgets[parents], 0.0),
        )
        return sub, parents.tolist()

    def gather(
        self,
        sensor_ids: Union[np.ndarray, Sequence[int]],
        starts: np.ndarray,
        ends: np.ndarray,
        base: int = 0,
        num_slots: Optional[int] = None,
        budgets: Optional[np.ndarray] = None,
    ) -> "DataCollectionInstance":
        """Sub-instance of the sensors ``sensor_ids`` (in that order) over
        new windows ``[starts[k], ends[k]]``, in one gather over this
        instance's arrays.

        The new windows are in this instance's slots and nested in the
        sensors' own; an empty one (``starts[k] > ends[k]``) keeps sensor
        ``k`` as unreachable.  Slots are re-based so that slot ``base``
        becomes slot 0 of a ``num_slots``-slot horizon (default: this
        instance's).  ``budgets[k]`` replaces sensor ``k``'s budget
        (default: its own).  Nothing is checked again: this instance's
        data was checked when it was built, and the caller keeps the
        windows nested and the budgets valid.
        """
        ids = np.asarray(sensor_ids, dtype=np.int64)
        empty = starts > ends
        sub_starts = np.where(empty, 0, starts - base)
        sub_ends = np.where(empty, -1, ends - base)
        layout = _pair_layout(sub_starts, sub_ends)
        _, sensor, slot = layout
        # Sub-pair (k, j) is this instance's pair (ids[k], base + j).
        flat = self._flat
        source = (flat.offsets[ids] - self._window_bounds[0][ids] + base)[sensor] + slot
        return DataCollectionInstance.__new__(DataCollectionInstance)._set_arrays(
            self.num_slots if num_slots is None else num_slots,
            self.slot_duration,
            sub_starts,
            sub_ends,
            layout,
            flat.rates[source],
            flat.powers[source],
            self._budgets[ids] if budgets is None else np.asarray(budgets, dtype=np.float64),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        starts, ends = self._window_bounds
        reachable = int(np.count_nonzero(starts <= ends))
        return (
            f"DataCollectionInstance(n={self.num_sensors} ({reachable} reachable), "
            f"T={self.num_slots}, tau={self.slot_duration})"
        )
