"""Tour execution and multi-tour (perpetual operation) simulation.

:func:`run_tour` plays a single collection tour: build the DCMP instance
from current battery states, run the chosen algorithm, verify the
allocation, debit transmission energy, and credit harvested energy over
the tour's wall-clock window — implementing the Section II.B recurrence

    P_{j+1}(v) = min(P_j(v) + Q_j(v) − O_j(v), B(v)).

:func:`simulate_tours` chains tours (with an optional rest period, e.g.
the sink driving back to the start) so perpetual-operation dynamics —
budgets depleting under heavy collection, recovering overnight — can be
studied, as the energy-harvesting premise of the paper invites.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.instance import DataCollectionInstance
from repro.obs import get_logger, get_registry, phase
from repro.sim.algorithms import TourAlgorithm
from repro.sim.results import SimulationResult, TourResult
from repro.sim.scenario import Scenario
from repro.verify.certificate import certify as _certify

__all__ = ["run_tour", "simulate_tours"]

_log = get_logger("sim.simulator")


def run_tour(
    scenario: Scenario,
    algorithm: TourAlgorithm,
    tour_index: int = 0,
    start_time: Optional[float] = None,
    rest_time: float = 0.0,
    mutate: bool = True,
    certify: bool = False,
    instance: Optional[DataCollectionInstance] = None,
) -> TourResult:
    """Execute one tour of ``algorithm`` over ``scenario``.

    Parameters
    ----------
    scenario:
        The topology; battery states are read and (when ``mutate``)
        updated in place.
    algorithm:
        Any :class:`~repro.sim.algorithms.TourAlgorithm`.
    tour_index:
        0-based tour number.
    start_time:
        Absolute start time (s).  Defaults to the scenario config's
        ``start_time`` plus ``tour_index`` tours, each followed by
        ``rest_time`` — i.e. the ``tour_index``-th of back-to-back tours.
    rest_time:
        Extra harvesting time (s) credited after the tour (sink
        repositioning, duty-cycle gaps).
    mutate:
        When ``False``, batteries are left untouched (single-shot
        algorithm comparisons on identical state).
    certify:
        When ``True``, produce a full solution certificate
        (:func:`repro.verify.certificate.certify` — constraints with
        slack values, LP bound, ratio guarantee) attached as
        ``TourResult.certificate``; adds a ``certify_s`` profile phase
        and a ``tour.certify`` timer.  The plain feasibility check
        (:meth:`~repro.core.allocation.Allocation.audit`, which also
        scores the tour) always runs regardless.
    instance:
        A pre-built DCMP instance to solve instead of deriving one from
        the scenario's battery state.  Batch runs
        (:func:`repro.sim.batch.run_tours`) pass the same instance to
        several algorithms so its derived arrays — coverage windows,
        rate/profit tables, the GAP reduction — are built once and
        shared; the caller is responsible for it matching the scenario.

    Returns
    -------
    TourResult
        Includes a ``profile`` dict with the per-phase wall-clock
        breakdown (``instance_build_s`` / ``solve_s`` / ``verify_s`` /
        ``certify_s`` / ``energy_update_s`` and the enclosing
        ``total_s``).  Each entry is one :class:`repro.obs.phase`
        interval, so it equals the matching ``tour.*`` timer
        observation and span duration exactly; under an active
        :class:`~repro.obs.profiling.DeepProfiler` (``repro profile
        --deep``) the build, solve, verify and certify phases are also
        function-level attribution windows.
    """
    if rest_time < 0:
        raise ValueError(f"rest_time must be >= 0, got {rest_time}")
    tour_duration = scenario.trajectory.tour_duration
    if start_time is None:
        start_time = scenario.config.start_time + tour_index * (tour_duration + rest_time)

    get_registry().inc("tour.runs")
    profile: Dict[str, float] = {}
    certificate = None
    with phase("tour.total", profile, tour=tour_index, algorithm=algorithm.name):
        with phase("tour.instance_build", profile, deep=True):
            if instance is None:
                instance = scenario.instance()
            budgets = np.array(instance.budgets_array())

        with phase("tour.solve", profile, deep=True, algorithm=algorithm.name):
            allocation, messages = algorithm.run(instance, scenario.gamma)

        with phase("tour.verify", profile, deep=True):
            audit = allocation.audit(instance)
            audit.check()
            spent = audit.spent

        if certify:
            with phase("tour.certify", profile, deep=True, algorithm=algorithm.name):
                certificate = _certify(instance, allocation, algorithm=algorithm.name)

        with phase("tour.energy_update", profile):
            if mutate:
                network = scenario.network
                harvested = network.harvest(start_time, start_time + tour_duration + rest_time)
                network.withdraw(np.minimum(spent, network.charges()))
                spilled = harvested - network.deposit(harvested)
            else:
                harvested = np.zeros(instance.num_sensors)
                spilled = np.zeros(instance.num_sensors)

    result = TourResult(
        tour_index=tour_index,
        collected_bits=audit.objective,
        allocation=allocation,
        energy_spent=spent,
        energy_harvested=harvested,
        energy_spilled=spilled,
        budgets=budgets,
        messages=messages,
        wall_time=profile["solve_s"],
        profile=profile,
        certificate=certificate,
    )
    _log.info(
        "tour %d [%s]: %.2f Mb in %.1f ms (build %.1f / solve %.1f / verify %.1f ms)",
        tour_index,
        algorithm.name,
        result.collected_megabits,
        profile["total_s"] * 1e3,
        profile["instance_build_s"] * 1e3,
        profile["solve_s"] * 1e3,
        profile["verify_s"] * 1e3,
    )
    return result


def simulate_tours(
    scenario: Scenario,
    algorithm: TourAlgorithm,
    num_tours: int,
    rest_time: float = 0.0,
) -> SimulationResult:
    """Run ``num_tours`` back-to-back tours, evolving battery state.

    Returns a :class:`~repro.sim.results.SimulationResult` whose tours
    carry per-tour throughput and the full energy ledger.
    """
    if num_tours < 0:
        raise ValueError(f"num_tours must be >= 0, got {num_tours}")
    result = SimulationResult(algorithm=algorithm.name)
    for j in range(num_tours):
        result.tours.append(run_tour(scenario, algorithm, tour_index=j, rest_time=rest_time))
    return result
