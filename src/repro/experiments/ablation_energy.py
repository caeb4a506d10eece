"""Ablation A3 as a first-class experiment: the initial-energy knob.

The one parameter the paper leaves unspecified is the sensors' stored
energy at the start of a tour.  This sweep varies the accumulation
window (hours of daylight harvest a node arrives with) and the weather,
quantifying how the absolute throughput — though *not* the relational
claims the reproduction checks — depends on that calibration.
:func:`check` asserts, at every swept n and for both algorithms: a
cloudy day collects less than a sunny one at the default U(0, 1) h;
more stored energy never costs more than 2 %; and the widest window
collects over 1.2× the narrowest.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.report import format_series_table
from repro.experiments.sweep import Claim, SweepPoint, SweepResult, aggregate, claim, run_sweep
from repro.sim.scenario import ScenarioConfig

__all__ = ["ACCUMULATION_WINDOWS", "SIZES", "build_points", "run", "report", "check"]

#: (lo, hi) hours of accumulated daylight harvest per series; the
#: library default is (0, 1).
ACCUMULATION_WINDOWS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.25),
    (0.0, 1.0),
    (0.5, 4.0),
    (2.0, 12.0),
)

SIZES: Tuple[int, ...] = (100, 300, 600)

ALGORITHMS: Tuple[str, ...] = ("Offline_Appro", "Online_Appro")

WEATHERS: Tuple[str, ...] = ("sunny", "cloudy")


def _panel(weather: str, window: Tuple[float, float]) -> str:
    lo, hi = window
    return f"{weather}, U({lo:g},{hi:g}) h"


def build_points(
    sizes: Sequence[int] = SIZES,
    windows: Sequence[Tuple[float, float]] = ACCUMULATION_WINDOWS,
    weathers: Sequence[str] = WEATHERS,
) -> List[SweepPoint]:
    """The sweep grid: one panel per (weather, accumulation window)."""
    points = []
    for n in sizes:
        for weather in weathers:
            for window in windows:
                config = ScenarioConfig(
                    num_sensors=n, weather=weather, accumulation_hours=window
                )
                points.append(
                    SweepPoint.make(
                        config,
                        ALGORITHMS,
                        seed_key=(n,),  # pair topologies across regimes
                        panel=_panel(weather, window),
                        n=n,
                    )
                )
    return points


def run(
    repeats: int = 50,
    sizes: Sequence[int] = SIZES,
    windows: Sequence[Tuple[float, float]] = ACCUMULATION_WINDOWS,
    jobs: Optional[int] = None,
    root_seed: int = 2013_33,
) -> SweepResult:
    """Execute the energy-calibration sweep."""
    return run_sweep(build_points(sizes, windows), repeats=repeats, jobs=jobs, root_seed=root_seed)


def report(result: SweepResult) -> str:
    """Series tables per (weather, accumulation) panel."""
    return (
        "Ablation A3 — initial-energy calibration and weather\n\n"
        + format_series_table(result)
    )


def check(result: SweepResult) -> List[Claim]:
    """The energy ablation's claims on the means over topologies."""
    means = {
        (panel, n, algo): mean
        for (panel, n), cell in aggregate(result, ["panel", "n"]).items()
        for algo, (mean, _, _) in cell.items()
    }
    cloudy_shares, steps, spans = [], [], []
    for n in result.label_values("n"):
        for algo in ALGORITHMS:
            sunny = means.get((_panel("sunny", (0.0, 1.0)), n, algo))
            cloudy = means.get((_panel("cloudy", (0.0, 1.0)), n, algo))
            if sunny is not None and cloudy is not None:
                cloudy_shares.append(cloudy / sunny)
            for weather in WEATHERS:
                # Throughput over the swept windows, narrowest first.
                keys = [(_panel(weather, w), n, algo) for w in ACCUMULATION_WINDOWS]
                ys = [means[k] for k in keys if k in means]
                steps += [a / b for a, b in zip(ys, ys[1:])]
                if len(ys) > 1:
                    spans.append(ys[-1] / ys[0])
    return [
        claim("cloudy_below_sunny_at_0_1h", max(cloudy_shares, default=None), lambda r: r < 1.0),
        claim("accumulation_monotone_within_2pct", max(steps, default=None), lambda r: r <= 1.02),
        claim("accumulation_last_over_first_gt_1.2", min(spans, default=None), lambda r: r > 1.2),
    ]
