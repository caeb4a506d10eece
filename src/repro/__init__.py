"""repro — reproduction of *"Use of a Mobile Sink for Maximizing Data
Collection in Energy Harvesting Sensor Networks"* (Ren, Liang, Xu;
ICPP 2013).

A mobile sink drives a highway lined with solar-powered sensors and must
allocate its receive time slots to maximise the data it collects, under
per-sensor energy budgets and distance-dependent multi-rate radios.
The package provides:

* the full physical substrate — path geometry, sink trajectory, sensor
  deployment, multi-rate radio, solar harvesting, batteries
  (:mod:`repro.network`, :mod:`repro.energy`);
* the combinatorial core — the DCMP instance, its GAP reduction, the
  ``Offline_Appro`` local-ratio approximation, the exact
  ``Offline_MaxMatch`` special case, knapsack/flow/matching/LP
  substrates, baselines and a brute-force oracle (:mod:`repro.core`);
* the online distributed protocol and the ``Online_Appro`` /
  ``Online_MaxMatch`` algorithms (:mod:`repro.online`);
* simulation and experiment harnesses reproducing every figure of the
  paper's evaluation (:mod:`repro.sim`, :mod:`repro.experiments`);
* an instrumentation layer — run-metrics registry, solver-phase
  tracing, logging, JSON profile reports — off and near-free by
  default (:mod:`repro.obs`; ``python -m repro profile``);
* a verification subsystem — solution certificates with named
  constraint checks and optimality bounds, a differential fuzzer with
  greedy shrinking, and a replayable failure corpus
  (:mod:`repro.verify`; ``python -m repro verify`` / ``fuzz``);
* sink-path design — 2D-plane deployments, plane-sweep serpentine
  tours, tour-length-bounded multi-sink scheduling
  (:mod:`repro.planning`; ``python -m repro plan``).

Quickstart
----------
>>> from repro import ScenarioConfig, get_algorithm, run_tour
>>> scenario = ScenarioConfig(num_sensors=150).build(seed=7)
>>> result = run_tour(scenario, get_algorithm("Offline_Appro"))
>>> result.collected_megabits > 0
True
"""

from repro.core import (
    Allocation,
    DataCollectionInstance,
    brute_force_optimum,
    dcmp_lp_upper_bound,
    greedy_by_density,
    greedy_by_profit,
    max_weight_b_matching,
    offline_appro,
    offline_maxmatch,
    random_allocation,
    round_robin_allocation,
    solve_dcmp_ilp,
    solve_knapsack,
)
from repro.online import online_appro, online_maxmatch, run_online
from repro.planning import PlannerConfig, PlanningError, SinkPlan, plan_scenario
from repro.sim import (
    PAPER_DEFAULTS,
    Scenario,
    ScenarioConfig,
    SimulationResult,
    TourResult,
    get_algorithm,
    run_tour,
    simulate_tours,
)
from repro.verify import Certificate, certify

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "DataCollectionInstance",
    "Allocation",
    "offline_appro",
    "offline_maxmatch",
    "brute_force_optimum",
    "dcmp_lp_upper_bound",
    "solve_dcmp_ilp",
    "solve_knapsack",
    "max_weight_b_matching",
    "greedy_by_profit",
    "greedy_by_density",
    "random_allocation",
    "round_robin_allocation",
    # online
    "run_online",
    "online_appro",
    "online_maxmatch",
    # sim
    "ScenarioConfig",
    "Scenario",
    "PAPER_DEFAULTS",
    "run_tour",
    "simulate_tours",
    "get_algorithm",
    "TourResult",
    "SimulationResult",
    # planning
    "PlannerConfig",
    "PlanningError",
    "SinkPlan",
    "plan_scenario",
    # verification
    "Certificate",
    "certify",
]
