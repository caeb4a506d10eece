"""Uniform tour-algorithm interface for the simulator and experiments.

Wraps each algorithm of the paper (and the baselines) behind one
``run(instance, gamma) -> (Allocation, MessageLog | None)`` call so the
simulator, the sweeps, and the benchmarks can treat them uniformly and
refer to them by their paper names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.allocation import Allocation
from repro.core.baselines import (
    greedy_by_density,
    greedy_by_profit,
    random_allocation,
    round_robin_allocation,
)
from repro.core.instance import DataCollectionInstance
from repro.core.offline_appro import offline_appro
from repro.core.offline_maxmatch import offline_maxmatch
from repro.online.messages import MessageLog
from repro.online.online_appro import online_appro
from repro.online.online_maxmatch import online_maxmatch

__all__ = [
    "TourAlgorithm",
    "OfflineApproAlgorithm",
    "OnlineApproAlgorithm",
    "OfflineMaxMatchAlgorithm",
    "OnlineMaxMatchAlgorithm",
    "BaselineAlgorithm",
    "ALGORITHMS",
    "get_algorithm",
    "resolve_algorithm_name",
    "requires_fixed_power",
]

RunOutput = Tuple[Allocation, Optional[MessageLog]]


class TourAlgorithm:
    """Base class: a named allocation algorithm for one tour."""

    name: str = "abstract"

    def run(self, instance: DataCollectionInstance, gamma: int) -> RunOutput:
        """Allocate the tour's slots; online algorithms also return
        their message log."""
        raise NotImplementedError


@dataclass
class OfflineApproAlgorithm(TourAlgorithm):
    """``Offline_Appro`` (Algorithm 1)."""

    name: str = "Offline_Appro"

    def run(self, instance: DataCollectionInstance, gamma: int) -> RunOutput:
        return offline_appro(instance), None


@dataclass
class OnlineApproAlgorithm(TourAlgorithm):
    """``Online_Appro`` (Algorithm 2 + GAP interval scheduler)."""

    name: str = "Online_Appro"

    def run(self, instance: DataCollectionInstance, gamma: int) -> RunOutput:
        result = online_appro(instance, gamma)
        return result.allocation, result.messages


@dataclass
class OfflineMaxMatchAlgorithm(TourAlgorithm):
    """``Offline_MaxMatch`` (exact, fixed-power special case)."""

    fixed_power: Optional[float] = None
    name: str = "Offline_MaxMatch"

    def run(self, instance: DataCollectionInstance, gamma: int) -> RunOutput:
        allocation = offline_maxmatch(instance, fixed_power=self.fixed_power)
        return allocation, None


@dataclass
class OnlineMaxMatchAlgorithm(TourAlgorithm):
    """``Online_MaxMatch`` (Algorithm 2 + matching interval scheduler)."""

    fixed_power: Optional[float] = None
    name: str = "Online_MaxMatch"

    def run(self, instance: DataCollectionInstance, gamma: int) -> RunOutput:
        result = online_maxmatch(instance, gamma, fixed_power=self.fixed_power)
        return result.allocation, result.messages


@dataclass
class BaselineAlgorithm(TourAlgorithm):
    """One of the baseline heuristics, by name."""

    variant: str = "greedy_profit"  # greedy_profit | greedy_density | random | round_robin
    seed: Optional[int] = 0
    name: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        if self.variant not in (
            "greedy_profit",
            "greedy_density",
            "random",
            "round_robin",
        ):
            raise ValueError(f"unknown baseline variant {self.variant!r}")
        if not self.name:
            self.name = f"Baseline[{self.variant}]"

    def run(self, instance: DataCollectionInstance, gamma: int) -> RunOutput:
        if self.variant == "greedy_profit":
            return greedy_by_profit(instance), None
        if self.variant == "greedy_density":
            return greedy_by_density(instance), None
        if self.variant == "random":
            return random_allocation(instance, self.seed), None
        return round_robin_allocation(instance), None


#: Registry of algorithm factories keyed by paper name.
ALGORITHMS: Dict[str, Callable[[], TourAlgorithm]] = {
    "Offline_Appro": OfflineApproAlgorithm,
    "Online_Appro": OnlineApproAlgorithm,
    "Offline_MaxMatch": OfflineMaxMatchAlgorithm,
    "Online_MaxMatch": OnlineMaxMatchAlgorithm,
    "Baseline[greedy_profit]": lambda: BaselineAlgorithm("greedy_profit"),
    "Baseline[greedy_density]": lambda: BaselineAlgorithm("greedy_density"),
    "Baseline[random]": lambda: BaselineAlgorithm("random"),
    "Baseline[round_robin]": lambda: BaselineAlgorithm("round_robin"),
}


def get_algorithm(name: str) -> TourAlgorithm:
    """Instantiate a registered algorithm by its paper name."""
    try:
        return ALGORITHMS[name]()
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None


def resolve_algorithm_name(name: str) -> str:
    """Canonical registry key for ``name``, tolerating case-insensitive
    aliases (``offline_appro`` → ``Offline_Appro``).

    Raises :class:`KeyError` naming the sorted choices when nothing
    matches — the CLI and the service schema both build their "unknown
    algorithm" errors from this one message.
    """
    if name in ALGORITHMS:
        return name
    folded = str(name).lower()
    for registered in ALGORITHMS:
        if registered.lower() == folded:
            return registered
    raise KeyError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")


def requires_fixed_power(name: str) -> bool:
    """Whether registered algorithm ``name`` is only exact for the
    fixed-power special case (the MaxMatch family, Section VI)."""
    return "MaxMatch" in name
