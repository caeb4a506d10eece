"""Figure 4 — impact of the slot duration τ on the online algorithms.

Paper setting (Section VII.C, second half): ``r_s = 5 m/s``,
``τ ∈ {1, 2, 4, 8, 16} s``, ``n ∈ {100..600}``; panel (a) runs
``Online_MaxMatch`` (fixed 300 mW), panel (b) ``Online_Appro``
(multi-rate).  One curve per τ.

Expected shape: throughput decreases monotonically in τ (energy-per-slot
quantisation locks low-budget sensors out of long slots), mildly for
small τ and sharply at τ = 16 (paper: τ = 1 beats τ = 16 by ≥ 50 %),
with the gaps widening as n grows.  :func:`check` judges, per panel:
τ = 1 beats τ = 16 at every n and by ≥ 30 % at some n; τ = 1 and τ = 2
differ by ≤ 15 %; no step in τ gains more than 10 % of the τ = 1 value.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.report import format_series_chart, format_series_table
from repro.experiments.sweep import Claim, SweepPoint, SweepResult, aggregate, claim, run_sweep
from repro.sim.scenario import ScenarioConfig

__all__ = ["TAUS", "SIZES", "SINK_SPEED", "build_points", "run", "report", "check"]

#: Slot durations swept (seconds).
TAUS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)

SIZES: Tuple[int, ...] = (100, 200, 300, 400, 500, 600)

#: Sink speed fixed at 5 m/s for the whole figure.
SINK_SPEED: float = 5.0

#: Fixed power for panel (a), as in Figure 3.
FIXED_POWER_W: float = 0.3

#: Panel tag per algorithm: (a) runs at fixed power, (b) multi-rate.
PANEL_TAGS: Dict[str, str] = {"Online_MaxMatch": "(a)", "Online_Appro": "(b)"}


def _panel(algorithm: str, tau: float) -> str:
    return f"{PANEL_TAGS[algorithm]} {algorithm}, tau={tau:g} s"


def build_points(
    sizes: Sequence[int] = SIZES,
    taus: Sequence[float] = TAUS,
) -> List[SweepPoint]:
    """The sweep grid: panel (a) = Online_MaxMatch, (b) = Online_Appro.

    Each (panel, τ) pair becomes a separate series; τ is carried in the
    panel label so the report prints one table per algorithm with a row
    per τ — the transpose of the paper's per-τ curves, same data.
    """
    points = []
    for n in sizes:
        for tau in taus:
            config_a = ScenarioConfig(
                num_sensors=n,
                sink_speed=SINK_SPEED,
                slot_duration=tau,
                fixed_power=FIXED_POWER_W,
            )
            points.append(
                SweepPoint.make(
                    config_a,
                    ("Online_MaxMatch",),
                    seed_key=(n,),  # pair topologies across taus
                    panel=_panel("Online_MaxMatch", tau),
                    n=n,
                )
            )
            config_b = ScenarioConfig(
                num_sensors=n, sink_speed=SINK_SPEED, slot_duration=tau
            )
            points.append(
                SweepPoint.make(
                    config_b,
                    ("Online_Appro",),
                    seed_key=(n,),
                    panel=_panel("Online_Appro", tau),
                    n=n,
                )
            )
    return points


def run(
    repeats: int = 50,
    sizes: Sequence[int] = SIZES,
    taus: Sequence[float] = TAUS,
    jobs: Optional[int] = None,
    root_seed: int = 2013_4,
) -> SweepResult:
    """Execute the Figure-4 sweep."""
    return run_sweep(build_points(sizes, taus), repeats=repeats, jobs=jobs, root_seed=root_seed)


def report(result: SweepResult) -> str:
    """The figure's series as text tables."""
    return (
        "Figure 4 — impact of slot duration tau on the online algorithms\n\n"
        + format_series_table(result)
        + "\n"
        + format_series_chart(result)
    )


def check(result: SweepResult) -> List[Claim]:
    """Figure 4's claims on the means over topologies (see module doc)."""
    stats = aggregate(result, ["panel", "n"])
    claims = []
    for algo in PANEL_TAGS:
        tail, head, rises = [], [], []
        for n in result.label_values("n"):
            # Throughput vs τ at this n, over the swept τ in TAUS order.
            keys = {tau: (_panel(algo, tau), n) for tau in TAUS}
            curve = {tau: stats[key][algo][0] for tau, key in keys.items() if key in stats}
            ys = list(curve.values())
            rises += [(b - a) / ys[0] for a, b in zip(ys, ys[1:])]
            if 1.0 in curve and 16.0 in curve:
                tail.append(curve[1.0] / curve[16.0])
            if 1.0 in curve and 2.0 in curve:
                head.append(abs(curve[1.0] - curve[2.0]) / curve[1.0])
        peak = max(tail, default=None)
        claims += [
            claim(f"tau1_beats_tau16[{algo}]", min(tail, default=None), lambda r: r > 1.0),
            claim(f"tau1_over_tau16_peak_ge_1.3[{algo}]", peak, lambda r: r >= 1.3),
            claim(f"tau1_tau2_within_15pct[{algo}]", max(head, default=None), lambda d: d <= 0.15),
            claim(f"near_monotone_in_tau[{algo}]", max(rises, default=None), lambda d: d <= 0.10),
        ]
    return claims
