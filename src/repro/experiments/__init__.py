"""Experiment harness: parameter sweeps reproducing the paper's figures.

One module per figure of the evaluation section (Figures 2–4) and per
sweep ablation, plus a generic sweep engine with multiprocessing
fan-out and plain-text series reports.  Each module owns its claims:
``check(result)`` returns one ``sweep.Claim`` row per paper claim, the
CLI prints them after the report (``python -m repro fig3 --repeats 50``
exits 1 when one fails), and ``tests/test_paper_claims.py`` runs every
module at quick scale in tier-1.
"""

from repro.experiments.sweep import (
    SweepPoint,
    SweepRecord,
    SweepResult,
    aggregate,
    run_sweep,
)
from repro.experiments.report import (
    format_records,
    format_series_chart,
    format_series_table,
)
from repro.experiments import ablation_energy, ablation_gamma, fig2, fig3, fig4
from repro.experiments import bench
from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = [
    "bench",
    "SweepPoint",
    "SweepRecord",
    "SweepResult",
    "run_sweep",
    "aggregate",
    "format_series_table",
    "format_series_chart",
    "format_records",
    "fig2",
    "fig3",
    "fig4",
    "ablation_gamma",
    "ablation_energy",
    "EXPERIMENTS",
    "get_experiment",
]
