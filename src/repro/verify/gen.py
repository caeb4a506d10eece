"""Random DCMP instance generation shared by tests and the fuzzer.

Promoted out of ``tests/conftest.py`` so the differential fuzzer
(:mod:`repro.verify.fuzz`), the Hypothesis property suite and ad-hoc
scripts all draw instances from *one* generator: a bug class the fuzzer
learns to hit is automatically in reach of the property tests, and vice
versa.  ``tests/conftest.py`` keeps thin aliases for backwards
compatibility.

Everything here is deterministic given the ``numpy`` generator passed
in, which is what makes fuzz failures replayable from a seed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.instance import DataCollectionInstance
from repro.core.serialize import make_instance

__all__ = ["make_instance", "random_instance"]

#: The paper's 4-level rate set (bits/s) used as the default draw pool.
DEFAULT_RATE_CHOICES = (4800.0, 9600.0, 19200.0, 250000.0)

#: Matching transmission powers (watts) for the rate levels above.
DEFAULT_POWER_CHOICES = (0.17, 0.22, 0.30, 0.33)


def random_instance(
    rng: np.random.Generator,
    num_slots: int = 10,
    num_sensors: int = 4,
    max_window: int = 6,
    rate_choices: Sequence[float] = DEFAULT_RATE_CHOICES,
    power_choices: Sequence[float] = DEFAULT_POWER_CHOICES,
    fixed_power: Optional[float] = None,
    budget_scale: float = 1.0,
) -> DataCollectionInstance:
    """A random small DCMP instance for oracle comparisons and fuzzing.

    Windows are random sub-intervals; rates/powers drawn from the
    paper's level sets (or a single fixed power); budgets scaled so the
    energy constraint binds for roughly half the sensors.  About one
    sensor in ten is unreachable (``window=None``) to exercise that
    code path.
    """
    sensors = []
    for _ in range(num_sensors):
        if rng.random() < 0.1:
            sensors.append({"window": None, "rates": [], "powers": [], "budget": 1.0})
            continue
        start = int(rng.integers(0, num_slots))
        length = int(rng.integers(1, max_window + 1))
        end = min(start + length - 1, num_slots - 1)
        size = end - start + 1
        idx = rng.integers(0, len(rate_choices), size=size)
        rates = np.asarray(rate_choices)[idx]
        if fixed_power is None:
            powers = np.asarray(power_choices)[idx]
        else:
            powers = np.full(size, fixed_power)
        # Budget: enough for a random fraction of the window.
        mean_cost = float(powers.mean())
        budget = budget_scale * mean_cost * rng.uniform(0.3, 1.2) * size
        sensors.append(
            {
                "window": (start, end),
                "rates": rates,
                "powers": powers,
                "budget": budget,
            }
        )
    return make_instance(num_slots, 1.0, sensors)
