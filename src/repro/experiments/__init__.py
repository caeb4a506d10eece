"""Experiment harness: parameter sweeps reproducing the paper's figures.

One module per figure of the evaluation section (Figures 2–4), plus a
generic sweep engine with multiprocessing fan-out and plain-text series
reports.  The benchmarks under ``benchmarks/`` are thin wrappers over
these modules, so a figure can be regenerated either via pytest or the
CLI (``python -m repro fig3 --repeats 50``).
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
