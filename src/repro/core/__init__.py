"""Core combinatorial layer: the data collection maximization problem.

Contains the paper's primary contribution — the DCMP formulation
(Section II.D), the offline approximation algorithm ``Offline_Appro``
(Sections III–IV: the GAP view and its local-ratio pass), and the
special-case exact algorithm ``Offline_MaxMatch`` (Section VI) — along
with all combinatorial substrates they need (knapsack solvers,
bipartite b-matching, LP bounds, baselines, and a brute-force exact
solver for validation).
"""

from repro.core.instance import DataCollectionInstance
from repro.core.allocation import Allocation
from repro.core.knapsack import (
    KnapsackResult,
    knapsack_fptas,
    knapsack_few_weights,
    knapsack_greedy,
    solve_knapsack,
)
from repro.core.matching import max_weight_b_matching
from repro.core.lp import dcmp_lp_upper_bound
from repro.core.ilp import IlpSolution, solve_dcmp_ilp
from repro.core.offline_appro import offline_appro
from repro.core.offline_maxmatch import offline_maxmatch
from repro.core.exact import brute_force_optimum
from repro.core.baselines import (
    greedy_by_profit,
    greedy_by_density,
    random_allocation,
    round_robin_allocation,
)

__all__ = [
    "DataCollectionInstance",
    "Allocation",
    "KnapsackResult",
    "knapsack_greedy",
    "knapsack_few_weights",
    "knapsack_fptas",
    "solve_knapsack",
    "max_weight_b_matching",
    "dcmp_lp_upper_bound",
    "IlpSolution",
    "solve_dcmp_ilp",
    "offline_appro",
    "offline_maxmatch",
    "brute_force_optimum",
    "greedy_by_profit",
    "greedy_by_density",
    "random_allocation",
    "round_robin_allocation",
]
