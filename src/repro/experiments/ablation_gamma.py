"""Ablation A4 as a first-class experiment: probe-interval length Γ.

Sweeps Γ from the paper's ``Γ* = ⌊R/(r_s·τ)⌋`` down to ``Γ*/8`` for the
online algorithms, pairing topologies across Γ values.  Expected
outcome: Γ* dominates — smaller intervals multiply probe traffic *and*
lose throughput to extra probe boundaries.  :func:`check` asserts, at
every swept n: messages strictly fall as Γ grows and drop ≥ 2× from
Γ*/8 to Γ*; Γ* collects the most; and from n = 300 on the throughput
band across Γ stays under 1.25× (smaller networks lose relatively more
at probe boundaries).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.report import format_series_chart, format_series_table
from repro.experiments.sweep import Claim, SweepPoint, SweepResult, aggregate, claim, run_sweep
from repro.sim.scenario import ScenarioConfig

__all__ = ["DIVISORS", "SIZES", "build_points", "run", "report", "check"]

#: Γ = Γ*/divisor per series.
DIVISORS: Tuple[int, ...] = (1, 2, 4, 8)

SIZES: Tuple[int, ...] = (100, 300, 600)

ALGORITHMS: Tuple[str, ...] = ("Online_Appro",)

#: The paper's Γ* for the default radio/speed/τ (200 m, 5 m/s, 1 s).
GAMMA_STAR: int = 40


def _panel(divisor: int) -> str:
    gamma = max(1, GAMMA_STAR // divisor)
    return f"gamma={gamma}" + (" (paper)" if divisor == 1 else f" (G*/{divisor})")


def build_points(
    sizes: Sequence[int] = SIZES,
    divisors: Sequence[int] = DIVISORS,
) -> List[SweepPoint]:
    """The sweep grid: one panel per Γ value."""
    points = []
    for n in sizes:
        for divisor in divisors:
            gamma = max(1, GAMMA_STAR // divisor)
            config = ScenarioConfig(num_sensors=n, gamma_override=gamma)
            points.append(
                SweepPoint.make(
                    config,
                    ALGORITHMS,
                    seed_key=(n,),  # pair topologies across gammas
                    panel=_panel(divisor),
                    n=n,
                )
            )
    return points


def run(
    repeats: int = 50,
    sizes: Sequence[int] = SIZES,
    divisors: Sequence[int] = DIVISORS,
    jobs: Optional[int] = None,
    root_seed: int = 2013_44,
) -> SweepResult:
    """Execute the Γ ablation sweep."""
    return run_sweep(build_points(sizes, divisors), repeats=repeats, jobs=jobs, root_seed=root_seed)


def report(result: SweepResult) -> str:
    """Series tables + charts, plus the message counts."""
    return (
        "Ablation A4 — probe-interval length gamma (Online_Appro)\n\n"
        + format_series_table(result)
        + "\n"
        + format_series_table(result, value="total_messages", unit="msgs")
    )


def check(result: SweepResult) -> List[Claim]:
    """The Γ trade-off's claims on the means over topologies."""
    (algo,) = ALGORITHMS
    megabits = aggregate(result, ["panel", "n"])
    messages = aggregate(result, ["panel", "n"], value="total_messages")
    falls, drops, leads, bands = [], [], [], []
    for n in result.label_values("n"):
        # Ascending Γ (descending divisor), over the swept divisors.
        keys = [(d, (_panel(d), n)) for d in sorted(DIVISORS, reverse=True)]
        mb = {d: megabits[key][algo][0] for d, key in keys if key in megabits}
        msgs = {d: messages[key][algo][0] for d, key in keys if key in messages}
        series = list(msgs.values())
        falls += [b / a for a, b in zip(series, series[1:])]
        if 1 in msgs and 8 in msgs:
            drops.append(msgs[8] / msgs[1])
        others = [v for d, v in mb.items() if d != 1]
        if 1 in mb and others:
            leads.append(mb[1] / max(others))
        if n >= 300 and len(mb) > 1:
            bands.append(max(mb.values()) / min(mb.values()))
    return [
        claim("messages_fall_as_gamma_grows", max(falls, default=None), lambda r: r < 1.0),
        claim("messages_drop_2x_from_gstar_8", min(drops, default=None), lambda r: r >= 2.0),
        claim("gamma_star_collects_most", min(leads, default=None), lambda r: r >= 1.0),
        claim("band_under_1.25_from_n300", max(bands, default=None), lambda r: r < 1.25),
    ]
