"""Figure 3 — the fixed-power special case, all four algorithms.

Paper setting (Section VII.C): every sensor transmits at the single
power ``P' = 300 mW``; panels vary the sink speed
``r_s ∈ {5, 10, 30} m/s`` with ``τ = 1 s``; ``n ∈ {100..600}``.
Algorithms: ``Offline_MaxMatch`` (exact), ``Online_MaxMatch``,
``Offline_Appro``, ``Online_Appro``.

Expected shape: ``Offline_MaxMatch`` on top; online variants a few
percent below their offline counterparts; throughput roughly halves
from 5→10 m/s and drops ~6.4× from 5→30 m/s (the paper reports +101 %
and +540 % for the inverse comparisons).  Note (documented in
EXPERIMENTS.md): our faithful ``Offline_Appro`` with an exact knapsack
lands within 1–2 % of the optimum, so the 16–19 % MaxMatch-over-Appro
gap the paper reports compresses here; the *ordering* is preserved.
:func:`check` judges the ordering, the online share (against 0.85) and
the speed ratios at the largest n (5/10 m/s in [1.5, 3], 5/30 m/s in
[3.5, 10]).
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

__all__ = [
    "ALGORITHMS",
    "SPEEDS",
    "SIZES",
    "FIXED_POWER_W",
    "build_points",
    "run",
    "report",
    "check",
]

ALGORITHMS: Tuple[str, ...] = (
    "Offline_MaxMatch",
    "Online_MaxMatch",
    "Offline_Appro",
    "Online_Appro",
)

#: Sink speeds per panel (m/s); τ fixed at 1 s.
SPEEDS: Tuple[float, ...] = (5.0, 10.0, 30.0)

SIZES: Tuple[int, ...] = (100, 200, 300, 400, 500, 600)

#: The paper's fixed transmission power (Section VII.C): 300 mW.
FIXED_POWER_W: float = 0.3


def _panel(speed: float) -> str:
    return f"r_s={speed:g} m/s"


def build_points(
    sizes: Sequence[int] = SIZES,
    speeds: Sequence[float] = SPEEDS,
) -> List[SweepPoint]:
    """The sweep grid for this figure."""
    points = []
    for speed in speeds:
        for n in sizes:
            config = ScenarioConfig(
                num_sensors=n,
                sink_speed=speed,
                slot_duration=1.0,
                fixed_power=FIXED_POWER_W,
            )
            points.append(
                SweepPoint.make(
                    config,
                    ALGORITHMS,
                    seed_key=(n,),  # pair topologies across speeds
                    panel=_panel(speed),
                    n=n,
                )
            )
    return points


def run(
    repeats: int = 50,
    sizes: Sequence[int] = SIZES,
    speeds: Sequence[float] = SPEEDS,
    jobs: Optional[int] = None,
    root_seed: int = 2013_3,
) -> SweepResult:
    """Execute the Figure-3 sweep."""
    return run_sweep(build_points(sizes, speeds), repeats=repeats, jobs=jobs, root_seed=root_seed)


def report(result: SweepResult) -> str:
    """The figure's series as text tables."""
    return (
        "Figure 3 — special case (fixed 300 mW), all algorithms\n\n"
        + format_series_table(result)
        + "\n"
        + format_series_chart(result)
    )


def check(result: SweepResult) -> List[Claim]:
    """Figure 3's claims on the means over topologies (see module doc)."""
    stats = aggregate(result, ["panel", "n"])
    means = [{algo: mean for algo, (mean, _, _) in cell.items()} for cell in stats.values()]
    n_big = max(result.label_values("n"), default=None)
    top = {p: cell["Offline_MaxMatch"][0] for (p, n), cell in stats.items() if n == n_big}

    def speedup(fast: float) -> Optional[float]:
        """5 m/s over ``fast`` m/s at the largest n, if both were swept."""
        slow, quick = top.get(_panel(5.0)), top.get(_panel(fast))
        return None if slow is None or quick is None else slow / quick

    leads = [
        m["Offline_MaxMatch"] - max(v for a, v in m.items() if a != "Offline_MaxMatch")
        for m in means
    ]
    appro_gaps = [m["Offline_Appro"] - m["Online_Appro"] for m in means]
    shares = [m["Online_MaxMatch"] / m["Offline_MaxMatch"] for m in means]
    return [
        claim("offline_maxmatch_on_top", min(leads, default=None), lambda g: g >= -TOLERANCE_MB),
        claim(
            "offline_appro_ge_online_appro",
            min(appro_gaps, default=None),
            lambda g: g >= -TOLERANCE_MB,
        ),
        claim("online_maxmatch_ge_0.85_top", min(shares, default=None), lambda r: r >= 0.85),
        claim("speed_5_over_10_in_1.5_3", speedup(10.0), lambda r: 1.5 <= r <= 3.0),
        claim("speed_5_over_30_in_3.5_10", speedup(30.0), lambda r: 3.5 <= r <= 10.0),
    ]
