"""Evaluation metrics over allocations and tour results.

The paper's single metric is *network throughput* (data collected per
tour).  A credible library also reports the standard companions:
per-sensor fairness (Jain's index), energy utilisation (what fraction of
the offered budgets was actually converted into transmissions), and slot
utilisation (how busy the sink's receive schedule was).
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocation
from repro.core.instance import DataCollectionInstance
from repro.units import bits_to_megabits

__all__ = [
    "throughput_megabits",
    "jain_fairness",
    "energy_utilisation",
    "slot_utilisation",
]


def throughput_megabits(
    allocation: Allocation, instance: DataCollectionInstance
) -> float:
    """Network throughput of the allocation, in megabits."""
    return float(bits_to_megabits(allocation.collected_bits(instance)))


def jain_fairness(values: np.ndarray) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` over per-sensor data.

    1.0 = perfectly even; ``1/n`` = one sensor got everything.  Sensors
    with nothing to offer should be excluded by the caller if that is
    the intended population.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 1.0
    if np.any(values < 0):
        raise ValueError("fairness values must be non-negative")
    total = values.sum()
    if total == 0:
        return 1.0
    return float(total**2 / (values.size * np.square(values).sum()))


def energy_utilisation(
    allocation: Allocation, instance: DataCollectionInstance
) -> float:
    """Fraction of the summed budgets spent on transmissions, in [0, 1]."""
    total_budget = float(instance.budgets_array().sum())
    if total_budget == 0:
        return 0.0
    return float(allocation.energy_spent(instance).sum() / total_budget)


def slot_utilisation(allocation: Allocation) -> float:
    """Fraction of slots carrying a transmission, in [0, 1]."""
    if allocation.num_slots == 0:
        return 0.0
    return allocation.num_assigned() / allocation.num_slots
