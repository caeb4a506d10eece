"""Registry mapping experiment ids to their modules.

Keeps the CLI subcommands and the tier-1 claims test
(``tests/test_paper_claims.py``) in sync with DESIGN.md's experiment
index.
"""

from __future__ import annotations

from types import ModuleType
from typing import Dict

from repro.experiments import ablation_energy, ablation_gamma, fig2, fig3, fig4

__all__ = ["EXPERIMENTS", "get_experiment"]

#: Experiment id → module with ``run(...) -> SweepResult``,
#: ``report(result) -> str`` and ``check(result) -> List[Claim]``.
EXPERIMENTS: Dict[str, ModuleType] = {
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "ablation-gamma": ablation_gamma,
    "ablation-energy": ablation_energy,
}


def get_experiment(name: str) -> ModuleType:
    """Look up an experiment module by id."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
