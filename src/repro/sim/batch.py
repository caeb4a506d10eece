"""Batch tour solving: many (scenario, algorithm) solves, shared prep.

A :class:`TourSpec` names one solve — a scenario config, a seed and an
algorithm.  :func:`solve_by_deployment` is the one place solves are
grouped by ``(config, seed)``: each distinct deployment is built
**once**, so the topology, the DCMP instance and everything memoised on
it (coverage windows, rate/profit/energy tables, the DCMP→GAP reduction,
the LP bound) are shared across every solve of that deployment.

:func:`run_tours` runs :func:`~repro.sim.simulator.run_tour` with
``mutate=False`` for each spec, so solves are pure and order-independent
within a group — exactly the single-shot comparison semantics of
``run_tour(..., mutate=False)``, minus the repeated instance builds.  It
is the engine behind the sweeps' per-topology units and the
``Batch[mixed]`` bench cell; the service worker hands its own per-item
solve to :func:`solve_by_deployment`, for ``POST /v1/solve`` (a batch of
one) and ``POST /v1/solve-batch`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.instance import DataCollectionInstance
from repro.obs import get_registry, phase
from repro.sim.algorithms import get_algorithm
from repro.sim.results import TourResult
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.simulator import run_tour

__all__ = ["TourSpec", "run_tours", "solve_by_deployment"]

T = TypeVar("T")


@dataclass(frozen=True)
class TourSpec:
    """One requested solve: scenario config + algorithm (+ seed, certify).

    The algorithm is named by its registry string (see
    :data:`repro.sim.algorithms.ALGORITHMS`) rather than held as an
    object so specs stay hashable and picklable.  Specs sharing
    ``(config, seed)`` describe the *same deployment* and are solved
    over one shared instance.
    """

    config: ScenarioConfig
    algorithm: str
    seed: Optional[int] = None
    certify: bool = False


def solve_by_deployment(
    specs: Sequence[TourSpec],
    solve: Callable[[TourSpec, Scenario, DataCollectionInstance], T],
) -> List[T]:
    """Call ``solve(spec, scenario, instance)`` for every spec, building
    each distinct deployment only once.

    Grouping is by ``(spec.config, spec.seed)`` — exact equality of the
    frozen config, not topological similarity.  Each group's scenario
    and instance (under the paper's whole-store budget policy) are built
    under one ``batch.prepare`` phase, then handed to ``solve`` once per
    spec of the group.  Returns the ``solve`` results in spec order.

    Emits ``batch.groups`` / ``batch.tours`` counters and the ``batch``
    / ``batch.prepare`` phases to the active registry and tracer.
    """
    registry = get_registry()
    groups: Dict[Tuple[ScenarioConfig, Optional[int]], List[int]] = {}
    for position, spec in enumerate(specs):
        groups.setdefault((spec.config, spec.seed), []).append(position)

    registry.inc("batch.groups", len(groups))
    registry.inc("batch.tours", len(specs))
    results: List[Optional[T]] = [None] * len(specs)
    with phase("batch", tours=len(specs), groups=len(groups)):
        for (config, seed), positions in groups.items():
            with phase("batch.prepare", n=config.num_sensors, seed=seed):
                scenario = config.build(seed=seed)
                instance = scenario.instance()
            for position in positions:
                results[position] = solve(specs[position], scenario, instance)
    return results  # type: ignore[return-value]  # every slot filled above


def run_tours(specs: Sequence[TourSpec]) -> List[TourResult]:
    """Solve every spec with ``run_tour``, building each distinct
    deployment only once (see :func:`solve_by_deployment`).

    Returns
    -------
    list of TourResult
        In the same order as ``specs``.  Each result's
        ``instance_build_s`` phase covers only the per-solve residue
        (the budgets snapshot); the shared per-group build cost is
        recorded once under the ``batch.prepare`` timer.  Certified
        specs of one deployment share its LP bound.
    """
    # Resolve up front so a typo'd algorithm fails before any solving.
    algorithms = {spec.algorithm: get_algorithm(spec.algorithm) for spec in specs}
    return solve_by_deployment(
        specs,
        lambda spec, scenario, instance: run_tour(
            scenario,
            algorithms[spec.algorithm],
            mutate=False,
            certify=spec.certify,
            instance=instance,
        ),
    )
