"""Batch tour solving: many (scenario, algorithm) solves, shared prep.

A :class:`TourSpec` names one solve — a scenario config, a seed and an
algorithm.  :func:`run_tours` executes a sequence of specs, grouping
them by ``(config, seed)`` so each distinct deployment is built **once**:
the topology, the DCMP instance and every derived array hanging off it
(coverage windows, rate/profit/energy tables, the memoised DCMP→GAP
reduction) are shared across all algorithms solving that deployment.
Solves run with ``mutate=False``, so they are pure and order-independent
within a group — exactly the single-shot comparison semantics of
``run_tour(..., mutate=False)``, minus the repeated instance builds.

This is the engine behind the service's ``POST /v1/solve-batch``
endpoint and the ``Batch[mixed]`` bench cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.energy.budget import BudgetPolicy
from repro.obs import get_registry, phase
from repro.sim.algorithms import get_algorithm
from repro.sim.results import TourResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import run_tour

__all__ = ["TourSpec", "run_tours"]


@dataclass(frozen=True)
class TourSpec:
    """One requested solve: scenario config + algorithm (+ seed, certify).

    The algorithm is named by its registry string (see
    :data:`repro.sim.algorithms.ALGORITHMS`) rather than held as an
    object so specs stay hashable and picklable.  Specs sharing
    ``(config, seed)`` describe the *same deployment* and are solved
    over one shared instance by :func:`run_tours`.
    """

    config: ScenarioConfig
    algorithm: str
    seed: Optional[int] = None
    certify: bool = False


def run_tours(
    specs: Sequence[TourSpec],
    budget_policy: Optional[BudgetPolicy] = None,
) -> List[TourResult]:
    """Solve every spec, building each distinct deployment only once.

    Parameters
    ----------
    specs:
        The solves to run.  Grouping is by ``(spec.config, spec.seed)``
        — exact equality of the frozen config, not topological
        similarity.
    budget_policy:
        Budget policy applied when deriving each group's instance
        (default: the paper's whole-store policy, as in
        :func:`~repro.sim.simulator.run_tour`).

    Returns
    -------
    list of TourResult
        In the same order as ``specs``.  Each result's
        ``instance_build_s`` phase covers only the per-solve residue
        (the budgets snapshot); the shared per-group build cost is
        recorded once under the ``batch.prepare`` timer.

    Notes
    -----
    Emits ``batch.groups`` / ``batch.tours`` counters and the ``batch``
    / ``batch.prepare`` phases to the active registry and tracer.
    """
    registry = get_registry()
    # Resolve up front so a typo'd algorithm fails before any solving.
    algorithms = [get_algorithm(spec.algorithm) for spec in specs]
    groups: Dict[Tuple[ScenarioConfig, Optional[int]], List[int]] = {}
    for position, spec in enumerate(specs):
        groups.setdefault((spec.config, spec.seed), []).append(position)

    registry.inc("batch.groups", len(groups))
    registry.inc("batch.tours", len(specs))
    results: List[Optional[TourResult]] = [None] * len(specs)
    with phase("batch", tours=len(specs), groups=len(groups)):
        for (config, seed), positions in groups.items():
            with phase("batch.prepare", n=config.num_sensors, seed=seed):
                scenario = config.build(seed=seed)
                instance = scenario.instance(budget_policy)
            for position in positions:
                spec = specs[position]
                results[position] = run_tour(
                    scenario,
                    algorithms[position],
                    budget_policy=budget_policy,
                    mutate=False,
                    certify=spec.certify,
                    instance=instance,
                )
    return results  # type: ignore[return-value]  # every slot filled above
