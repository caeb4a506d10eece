"""Slot allocations and their feasibility/objective accounting.

An :class:`Allocation` is the output of every algorithm in the library:
a mapping from time slots to the (at most one) sensor transmitting in
each slot.  :meth:`Allocation.audit` checks it against the paper's
constraints (1)–(4) and scores it in one pass; the violation list,
``check_feasible``, the collected bits, the energy spent and the
solution certificate (:mod:`repro.verify.certificate`) all read that
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.instance import DataCollectionInstance
from repro.utils.arrays import ordered_sum

__all__ = ["Allocation", "AllocationAudit"]

#: Constraint (4)'s tolerance in joules: a sensor may overspend its
#: budget by at most this much.
BUDGET_EPS = 1e-9

#: Sentinel in ``slot_owner`` for unassigned slots.
UNASSIGNED = -1


@dataclass(frozen=True, eq=False)
class AllocationAudit:
    """An allocation checked against constraints (1)–(4) and scored, by
    :meth:`Allocation.audit`.

    ``slots``/``sensors`` are the assigned pairs, slot-ascending;
    ``known`` marks the pairs whose sensor exists, ``valid`` those that
    are also inside the sensor's window (constraints (1)+(2)), and
    ``pairs`` holds the flat pair index of each valid pair.  The
    ``objective`` (bits) and the ``(n,)`` ``spent`` (joules) sum the
    valid pairs in slot order; ``over`` lists, ascending, the sensors
    spending more than their budget plus :data:`BUDGET_EPS`
    (constraint (4)).  On a horizon mismatch no pair is read.
    """

    instance: DataCollectionInstance
    num_slots: int
    slots: np.ndarray
    sensors: np.ndarray
    known: np.ndarray
    valid: np.ndarray
    pairs: np.ndarray
    objective: float
    spent: np.ndarray
    over: np.ndarray

    @property
    def horizon_ok(self) -> bool:
        """Whether the allocation covers exactly the instance's slots."""
        return self.num_slots == self.instance.num_slots

    @property
    def feasible(self) -> bool:
        """Whether constraints (1)–(4) all hold."""
        return self.horizon_ok and bool(self.valid.all()) and not self.over.size

    def violations(self) -> List[str]:
        """Human-readable constraint violations (empty = feasible): the
        horizon mismatch alone, else the invalid pairs in slot order,
        then the sensors over budget.  Constraint (3) holds by the
        ``slot_owner`` encoding."""
        instance = self.instance
        if not self.horizon_ok:
            return [
                f"allocation horizon {self.num_slots} != instance horizon {instance.num_slots}"
            ]
        bad = ~self.valid
        problems = [
            f"slot {j}: outside A(v_{s}) = {instance.window_of(s)}"
            if known
            else f"slot {j}: unknown sensor {s}"
            for j, s, known in zip(
                self.slots[bad].tolist(), self.sensors[bad].tolist(), self.known[bad].tolist()
            )
        ]
        budgets = instance.budgets_array()
        for i in self.over.tolist():
            problems.append(
                f"sensor {i}: energy {self.spent[i]:.9f} J exceeds budget "
                f"{budgets[i]:.9f} J by {self.spent[i] - budgets[i]:.3e} J"
            )
        return problems

    def check(self) -> None:
        """Raise ``ValueError`` listing every violation if infeasible; the
        message names the instance shape (``n``, ``T``)."""
        if not self.feasible:
            raise ValueError(
                f"infeasible allocation (n={self.instance.num_sensors} sensors, "
                f"T={self.instance.num_slots} slots):\n  " + "\n  ".join(self.violations())
            )


@dataclass(frozen=True)
class Allocation:
    """An assignment of time slots to sensors.

    Attributes
    ----------
    slot_owner:
        ``(T,)`` int array; ``slot_owner[j]`` is the sensor transmitting
        in slot ``j`` or ``-1``.
    """

    slot_owner: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.slot_owner, dtype=np.int64)
        object.__setattr__(self, "slot_owner", arr)
        arr.flags.writeable = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_slots: int) -> "Allocation":
        """All slots unassigned."""
        return cls(np.full(num_slots, UNASSIGNED, dtype=np.int64))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Horizon length ``T``."""
        return int(self.slot_owner.shape[0])

    def slots_of(self, sensor: int) -> np.ndarray:
        """Slot indices assigned to ``sensor`` (ascending)."""
        return np.flatnonzero(self.slot_owner == sensor)

    def sensor_slots(self) -> Dict[int, List[int]]:
        """``{sensor: [slots...]}`` over assigned slots only."""
        out: Dict[int, List[int]] = {}
        for j, owner in enumerate(self.slot_owner):
            if owner != UNASSIGNED:
                out.setdefault(int(owner), []).append(j)
        return out

    def num_assigned(self) -> int:
        """Number of slots carrying a transmission."""
        return int(np.count_nonzero(self.slot_owner != UNASSIGNED))

    # ------------------------------------------------------------------
    # Feasibility (constraints (1)-(4) of Section II.D) and scoring
    # ------------------------------------------------------------------
    def audit(self, instance: DataCollectionInstance) -> AllocationAudit:
        """Check constraints (1)–(4) and score the allocation in one pass.

        Only valid pairs are scored, so a corrupt allocation gets numbers
        rather than an exception; the sums run in slot order, equal to
        the scalar sweep bit for bit.
        """
        n = instance.num_sensors
        owner = self.slot_owner if self.num_slots == instance.num_slots else self.slot_owner[:0]
        slots = np.flatnonzero(owner != UNASSIGNED)
        sensors = owner[slots]
        known = (sensors >= 0) & (sensors < n)
        starts, ends = instance.window_bounds()
        ids, id_slots = sensors[known], slots[known]
        valid = known.copy()
        valid[known] = (id_slots >= starts[ids]) & (id_slots <= ends[ids])
        sensors_ok = sensors[valid]
        flat = instance.flat_pairs()
        pairs = flat.offsets[sensors_ok] + (slots[valid] - starts[sensors_ok])
        # bincount accumulates in occurrence (slot) order per sensor.
        spent = np.bincount(sensors_ok, weights=flat.costs[pairs], minlength=n)
        return AllocationAudit(
            instance=instance,
            num_slots=self.num_slots,
            slots=slots,
            sensors=sensors,
            known=known,
            valid=valid,
            pairs=pairs,
            objective=ordered_sum(flat.profits[pairs]),
            spent=spent,
            over=np.flatnonzero(spent > instance.budgets_array() + BUDGET_EPS),
        )

    def collected_bits(self, instance: DataCollectionInstance) -> float:
        """The paper's objective ``Σ x_{i,j} · r_{i,j} · tau`` in bits
        (valid pairs only; see :meth:`audit`)."""
        return self.audit(instance).objective

    def energy_spent(self, instance: DataCollectionInstance) -> np.ndarray:
        """``(n,)`` joules each sensor spends under this allocation
        (valid pairs only; see :meth:`audit`)."""
        return self.audit(instance).spent

    def per_sensor_bits(self, instance: DataCollectionInstance) -> np.ndarray:
        """``(n,)`` bits collected from each sensor (fairness metrics;
        valid pairs only)."""
        audit = self.audit(instance)
        return np.bincount(
            audit.sensors[audit.valid],
            weights=instance.flat_pairs().profits[audit.pairs],
            minlength=instance.num_sensors,
        )

    def violations(self, instance: DataCollectionInstance) -> List[str]:
        """Human-readable list of constraint violations (empty = feasible);
        see :meth:`AllocationAudit.violations`."""
        return self.audit(instance).violations()

    def check_feasible(self, instance: DataCollectionInstance) -> None:
        """Raise ``ValueError`` listing every violation if infeasible.
        For failures *as data*, see :func:`repro.verify.certificate.certify`."""
        self.audit(instance).check()
