"""Figure 2 — ``Offline_Appro`` vs ``Online_Appro`` (multi-rate radio).

Paper setting (Section VII.B): network size ``n ∈ {100..600}``; three
panels with the sink speed and slot duration varied together,
``(r_s, τ) ∈ {(5 m/s, 1 s), (10 m/s, 2 s), (30 m/s, 4 s)}``; multi-rate
table; 50 random topologies per point.

Expected shape: offline ≥ online everywhere with the online algorithm
within a few percent (paper: ≥ 93 % at r_s = 5, τ = 1); throughput grows
with n and shrinks as speed/τ grow.  :func:`check` judges these claims
on the means over topologies, the online share against 0.85.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.report import format_series_chart, format_series_table
from repro.experiments.sweep import (
    TOLERANCE_MB,
    Claim,
    SweepPoint,
    SweepResult,
    aggregate,
    claim,
    run_sweep,
)
from repro.sim.scenario import ScenarioConfig

__all__ = ["ALGORITHMS", "PANELS", "SIZES", "build_points", "run", "report", "check"]

ALGORITHMS: Tuple[str, ...] = ("Offline_Appro", "Online_Appro")

#: (sink speed m/s, slot duration s) per panel, as in the paper.
PANELS: Tuple[Tuple[float, float], ...] = ((5.0, 1.0), (10.0, 2.0), (30.0, 4.0))

#: Network sizes swept (paper: 100..600).
SIZES: Tuple[int, ...] = (100, 200, 300, 400, 500, 600)


def _panel(speed: float, tau: float) -> str:
    return f"r_s={speed:g} m/s, tau={tau:g} s"


def build_points(
    sizes: Sequence[int] = SIZES,
    panels: Sequence[Tuple[float, float]] = PANELS,
) -> List[SweepPoint]:
    """The sweep grid for this figure."""
    points = []
    for speed, tau in panels:
        for n in sizes:
            config = ScenarioConfig(
                num_sensors=n, sink_speed=speed, slot_duration=tau
            )
            points.append(
                SweepPoint.make(
                    config,
                    ALGORITHMS,
                    seed_key=(n,),  # pair topologies across panels
                    panel=_panel(speed, tau),
                    n=n,
                )
            )
    return points


def run(
    repeats: int = 50,
    sizes: Sequence[int] = SIZES,
    panels: Sequence[Tuple[float, float]] = PANELS,
    jobs: Optional[int] = None,
    root_seed: int = 2013_2,
) -> SweepResult:
    """Execute the Figure-2 sweep."""
    return run_sweep(build_points(sizes, panels), repeats=repeats, jobs=jobs, root_seed=root_seed)


def report(result: SweepResult) -> str:
    """The figure's series as text tables."""
    return (
        "Figure 2 — network throughput, Offline_Appro vs Online_Appro\n\n"
        + format_series_table(result)
        + "\n"
        + format_series_chart(result)
    )


def check(result: SweepResult) -> List[Claim]:
    """Figure 2's claims on the means over topologies (see module doc)."""
    stats = aggregate(result, ["panel", "n"])
    off = {key: cell["Offline_Appro"][0] for key, cell in stats.items()}
    on = {key: cell["Online_Appro"][0] for key, cell in stats.items()}
    sizes = sorted(result.label_values("n"))
    swept = result.label_values("panel")
    # The paper's panels run from the slowest sink to the fastest.
    ordered = [p for p in (_panel(*pt) for pt in PANELS) if p in swept]
    gaps = [off[k] - on[k] for k in off]
    shares = [on[k] / off[k] for k in off]
    growth = [off[(p, sizes[-1])] / off[(p, sizes[0])] for p in swept if len(sizes) > 1]
    slowdown = [off[(a, n)] / off[(b, n)] for a, b in zip(ordered, ordered[1:]) for n in sizes]
    return [
        claim("offline_ge_online", min(gaps, default=None), lambda g: g >= -TOLERANCE_MB),
        claim("online_ge_0.85_offline", min(shares, default=None), lambda r: r >= 0.85),
        claim("grows_with_n", min(growth, default=None), lambda r: r > 1.0),
        claim("faster_sink_collects_less", min(slowdown, default=None), lambda r: r > 1.0),
    ]
