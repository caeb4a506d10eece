"""Core benchmark: a fixed small scenario set run per algorithm.

``python -m repro bench`` runs every registered algorithm over a fixed,
deterministic scenario grid and reports wall-clock plus the metrics
registry's per-phase breakdown for each cell — the repo's committed
perf trajectory (``BENCH_core.json`` at the repo root is the
``--quick`` output, refreshed by CI as a build artifact).

Two grids:

* ``--quick`` — ``n ∈ {30, 60}`` on a shortened 1.5 km path: seconds
  end to end, suitable for CI smoke and the committed baseline;
* full (default) — ``n ∈ {100, 300}`` on the paper's 10 km path.

Each cell solves one seeded topology under a fresh recording
:class:`~repro.obs.registry.MetricsRegistry`, so the JSON document
carries solver counters (``knapsack.calls``, ``matching.calls``, …) and
timer histograms next to the wall-clock numbers.  ``repeat > 1`` runs
every cell that many times and reports the min/median wall clock per
cell (``wall_s`` is the minimum — the least-noisy repeat), cutting
single-shot noise on shared runners.

Every document is stamped with provenance — the git commit it was
produced from, whether the working tree was dirty, and an optional
free-form label — so the committed ``BENCH_*`` trajectory stays
attributable.  Wall times vary machine to machine; the committed file
is compared against fresh runs by ``repro bench --compare``, the
ledger gate of :mod:`repro.obs.trend`, with machine-independent work
counters as the hard gate and wall times gated only between documents
recorded on the same platform and Python.
"""

from __future__ import annotations

import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.lp import load_highs
from repro.obs.registry import MetricsRegistry, use_registry
from repro.planning import PlannerConfig
from repro.sim.algorithms import ALGORITHMS, get_algorithm, requires_fixed_power
from repro.sim.batch import TourSpec, run_tours
from repro.sim.results import TourResult
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import run_tour, simulate_tours

__all__ = [
    "BENCH_FORMAT",
    "BENCH_VERSION",
    "git_provenance",
    "run_bench",
    "render_bench",
]

BENCH_FORMAT = "repro.bench"
BENCH_VERSION = 2

#: (num_sensors, path_length) cells of the two grids.
QUICK_GRID: Tuple[Tuple[int, float], ...] = ((30, 1500.0), (60, 1500.0))
FULL_GRID: Tuple[Tuple[int, float], ...] = ((100, 10_000.0), (300, 10_000.0))

#: Power pinned for the MaxMatch family (the paper's Section VI value).
FIXED_POWER = 0.3

#: Planner cells: (planner kind, num_sensors, field width).  These run
#: the full plan → solve pipeline on a 2D field, so the compare gate
#: covers planning work (``planner.*`` counters, ``plan_s`` phase).
PLANNER_QUICK_GRID: Tuple[Tuple[str, int, float], ...] = (
    ("plane_sweep", 30, 1500.0),
    ("multi_sink", 30, 1500.0),
)
PLANNER_FULL_GRID: Tuple[Tuple[str, int, float], ...] = (
    ("plane_sweep", 100, 3_000.0),
    ("multi_sink", 100, 3_000.0),
)
#: Field half-height and sink speed of the planner cells.  A taller
#: field than the paper's 180 m makes the serpentine non-trivial; the
#: faster sink keeps the designed tour's slot count bench-friendly.
PLANNER_MAX_OFFSET = 300.0
PLANNER_SINK_SPEED = 10.0
#: Algorithm solved on the designed tours (the paper's main offline one).
PLANNER_ALGORITHM = "Offline_Appro"

#: Scale cells: the paper's largest population (Section VII.A's n = 600)
#: on the full 10 km path, solved by the flagship offline algorithm and
#: by the exact fixed-power one (a 38k-edge b-matching).  These are the
#: cells the speedup ledgers (docs/PERFORMANCE.md) track — big enough
#: that ``instance_build_s + solve_s`` measures the solver core, not
#: fixed overheads.  They run in both grids.
SCALE_GRID: Tuple[Tuple[str, int, float], ...] = (
    ("Offline_Appro", 600, 10_000.0),
    ("Offline_MaxMatch", 600, 10_000.0),
)

#: Algorithms of the ``Batch[mixed]`` cell: the paper's offline
#: algorithm plus the three deterministic baselines, all solving the
#: *same* 600-sensor deployment through one shared instance
#: (:func:`repro.sim.batch.run_tours`), so the cell tracks the
#: shared-prep batch path end to end.
BATCH_ALGORITHMS: Tuple[str, ...] = (
    "Offline_Appro",
    "Baseline[greedy_profit]",
    "Baseline[greedy_density]",
    "Baseline[round_robin]",
)
#: (num_sensors, path_length) of the ``Batch[mixed]`` cell (both grids).
BATCH_GRID: Tuple[Tuple[int, float], ...] = ((600, 10_000.0),)

#: Perpetual cells: (algorithm, num_sensors, path_length), in both
#: grids.  Each plays :data:`PERPETUAL_TOURS` tours through
#: ``simulate_tours`` from 17:00 with a 3 h rest after each 2,000 s
#: tour — dusk into night — so the ledger sees the battery debit and
#: the harvest credit of the energy update on real harvest windows.
PERPETUAL_GRID: Tuple[Tuple[str, int, float], ...] = (("Offline_Appro", 300, 10_000.0),)
PERPETUAL_TOURS = 4
PERPETUAL_START_S = 17 * 3600.0
PERPETUAL_REST_S = 3 * 3600.0

#: Certified cells: (algorithm, num_sensors, path_length), in both
#: grids.  Each plays one ``certify=True`` tour, so the cell prices the
#: DCMP LP bound the certificate checks (the ``lp_bound_s`` phase, from
#: the ``lp.dcmp_bound`` timer) at the service's n = 100 and the
#: paper's n = 600.
CERTIFIED_GRID: Tuple[Tuple[str, int, float], ...] = (
    ("Offline_Appro", 100, 10_000.0),
    ("Offline_Appro", 600, 10_000.0),
)


def _git(*args: str) -> Optional[str]:
    """Output of one git command, or ``None`` when unavailable."""
    try:
        proc = subprocess.run(
            ("git",) + args,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def git_provenance() -> Dict[str, object]:
    """Best-effort git provenance of the working tree.

    Returns ``{"git_commit": <sha or None>, "git_dirty": <bool or
    None>}``; both ``None`` outside a git checkout (or without a git
    binary), so bench documents are still produced from tarballs.
    """
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit is not None else None
    return {
        "git_commit": commit,
        "git_dirty": bool(status) if status is not None else None,
    }


def _measure_cell(
    name: str,
    config: ScenarioConfig,
    seed: int,
    repeat: int,
    run: Callable[[], Sequence[TourResult]],
    timer_phases: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """Run one cell ``repeat`` times; best-of entry.

    ``run`` builds the cell's deployment and plays its tours under a
    fresh recording registry.  The entry sums ``collected_megabits`` and
    every ``profile`` phase over those tours, and promotes the
    ``scenario.build`` timer to the ``scenario_build_s`` phase, plus
    each ``{phase: timer}`` of ``timer_phases`` (e.g. ``plan_s`` from
    ``planner.plan``), so the compare gate grades them like any other
    wall metric.  ``wall_s`` spans the whole run.
    """
    timers = {"scenario_build_s": "scenario.build", **(timer_phases or {})}
    runs: List[Tuple[float, Dict[str, object], Sequence[TourResult], Dict[str, float]]] = []
    for _ in range(repeat):
        registry = MetricsRegistry()
        t0 = time.perf_counter()
        with use_registry(registry):
            tours = run()
        wall_s = time.perf_counter() - t0
        phases = {key: registry.timer_stats(timer).total for key, timer in timers.items()}
        runs.append((wall_s, registry.snapshot(), tours, phases))
    walls = sorted(wall for wall, _, _, _ in runs)
    best_wall, snapshot, tours, phases = min(runs, key=lambda run: run[0])
    profile: Dict[str, float] = {}
    for tour in tours:
        for phase, seconds in tour.profile.items():
            profile[phase] = profile.get(phase, 0.0) + float(seconds)
    profile.update((key, float(seconds)) for key, seconds in phases.items())
    entry: Dict[str, object] = {
        "algorithm": name,
        "num_sensors": config.num_sensors,
        "path_length": config.path_length,
        "fixed_power": config.fixed_power,
        "seed": seed,
        "wall_s": best_wall,
        "collected_megabits": float(sum(tour.collected_megabits for tour in tours)),
        "profile": profile,
        "counters": snapshot["counters"],
        "timers": snapshot["timers"],
    }
    if repeat > 1:
        entry["wall_stats"] = {
            "repeats": repeat,
            "min_s": walls[0],
            "median_s": statistics.median(walls),
            "max_s": walls[-1],
        }
    return entry


def _bench_cell(
    name: str,
    config: ScenarioConfig,
    seed: int,
    repeat: int,
    timer_phases: Optional[Dict[str, str]] = None,
) -> Dict[str, object]:
    """One build and one ``mutate=False`` tour of ``name`` (planner
    cells solve with :data:`PLANNER_ALGORITHM`)."""
    algorithm = PLANNER_ALGORITHM if name.startswith("Planner[") else name
    return _measure_cell(
        name,
        config,
        seed,
        repeat,
        lambda: [run_tour(config.build(seed=seed), get_algorithm(algorithm), mutate=False)],
        timer_phases,
    )


def _bench_batch_cell(
    num_sensors: int,
    path_length: float,
    seed: int,
    repeat: int,
) -> Dict[str, object]:
    """The ``Batch[mixed]`` cell: all :data:`BATCH_ALGORITHMS` solved
    over one shared instance via :func:`repro.sim.batch.run_tours`.

    ``collected_megabits`` and the ``profile`` phases are summed across
    the batch's tours (so the output gate covers every algorithm at
    once); the shared per-deployment build cost appears as the
    ``prepare_s`` phase, which contains ``scenario_build_s``.
    """
    config = ScenarioConfig(num_sensors=num_sensors, path_length=path_length)
    specs = [TourSpec(config=config, algorithm=name, seed=seed) for name in BATCH_ALGORITHMS]
    return _measure_cell(
        "Batch[mixed]",
        config,
        seed,
        repeat,
        lambda: run_tours(specs),
        {"prepare_s": "batch.prepare"},
    )


def _bench_perpetual_cell(
    name: str,
    num_sensors: int,
    path_length: float,
    seed: int,
    repeat: int,
) -> Dict[str, object]:
    """A ``Perpetual[<algorithm>]`` cell: :data:`PERPETUAL_TOURS` tours
    of one deployment through :func:`repro.sim.simulator.simulate_tours`
    from :data:`PERPETUAL_START_S`, resting :data:`PERPETUAL_REST_S`
    after each, so every tour debits and recharges the batteries.

    ``collected_megabits`` and the ``profile`` phases are summed over
    the tours, as in ``Batch[mixed]``.
    """
    config = ScenarioConfig(
        num_sensors=num_sensors, path_length=path_length, start_time=PERPETUAL_START_S
    )
    return _measure_cell(
        f"Perpetual[{name}]",
        config,
        seed,
        repeat,
        lambda: simulate_tours(
            config.build(seed=seed),
            get_algorithm(name),
            PERPETUAL_TOURS,
            rest_time=PERPETUAL_REST_S,
        ).tours,
    )


def _bench_certified_cell(
    name: str,
    num_sensors: int,
    path_length: float,
    seed: int,
    repeat: int,
) -> Dict[str, object]:
    """A ``Certified[<algorithm>]`` cell: one build and one ``mutate=False``
    tour with ``certify=True``; the LP bound's solve is its
    ``lp_bound_s`` phase (inside ``certify_s``)."""
    config = ScenarioConfig(num_sensors=num_sensors, path_length=path_length)
    return _measure_cell(
        f"Certified[{name}]",
        config,
        seed,
        repeat,
        lambda: [
            run_tour(config.build(seed=seed), get_algorithm(name), mutate=False, certify=True)
        ],
        {"lp_bound_s": "lp.dcmp_bound"},
    )


def run_bench(
    quick: bool = False,
    seed: int = 7,
    grid: Optional[Sequence[Tuple[int, float]]] = None,
    algorithms: Optional[Sequence[str]] = None,
    repeat: int = 1,
    label: Optional[str] = None,
    planner_grid: Optional[Sequence[Tuple[str, int, float]]] = None,
    scale_grid: Optional[Sequence[Tuple[str, int, float]]] = None,
    batch_grid: Optional[Sequence[Tuple[int, float]]] = None,
) -> Dict[str, object]:
    """Run the benchmark grid; returns the JSON-ready document.

    ``grid`` / ``algorithms`` override the built-in cells (used by
    tests to shrink the run); by default every registered algorithm
    runs on every cell of the quick or full grid.  ``repeat`` runs each
    cell that many times: ``wall_s`` becomes the per-cell minimum and a
    ``wall_stats`` block records min/median/max across repeats (solver
    counters are deterministic, so they come from the fastest repeat).
    ``label`` is stamped into the document's provenance block.

    Planner cells (``Planner[plane_sweep]`` / ``Planner[multi_sink]``)
    run the plan → solve pipeline over a 2D field; they join the
    default grids automatically and can be overridden (or silenced with
    ``()``) via ``planner_grid``.  The scale cell (:data:`SCALE_GRID`,
    the paper's n = 600 on the 10 km path) and the ``Batch[mixed]``
    cell (:data:`BATCH_GRID`, all of :data:`BATCH_ALGORITHMS` over one
    shared instance) join the same way via ``scale_grid`` /
    ``batch_grid``.  When ``grid`` or ``algorithms`` is overridden,
    these extra cells only run if their grid is given explicitly —
    shrunk test runs stay shrunk.  The ``Perpetual[...]`` cells
    (:data:`PERPETUAL_GRID`, several battery-writing tours of one
    deployment) and the ``Certified[...]`` cells
    (:data:`CERTIFIED_GRID`, one certified tour that prices the LP
    bound) run only in the default grids.

    Every cell's ``profile`` carries ``scenario_build_s``, the
    ``scenario.build`` timer, next to the tour phases, so the build is
    a graded wall phase like the rest of the pipeline.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    cells = tuple(grid) if grid is not None else (QUICK_GRID if quick else FULL_GRID)
    names = list(algorithms) if algorithms is not None else sorted(ALGORITHMS)
    if grid is None and algorithms is None:
        if planner_grid is None:
            planner_grid = PLANNER_QUICK_GRID if quick else PLANNER_FULL_GRID
        if scale_grid is None:
            scale_grid = SCALE_GRID
        if batch_grid is None:
            batch_grid = BATCH_GRID
    # Before the first cell, so no cell's timers hold the import.
    load_highs()
    entries: List[Dict[str, object]] = []
    for num_sensors, path_length in cells:
        for name in names:
            fixed_power = FIXED_POWER if requires_fixed_power(name) else None
            config = ScenarioConfig(
                num_sensors=num_sensors,
                path_length=path_length,
                fixed_power=fixed_power,
            )
            entries.append(_bench_cell(name, config, seed, repeat))
    for kind, num_sensors, path_length in planner_grid or ():
        config = ScenarioConfig(
            num_sensors=num_sensors,
            path_length=path_length,
            max_offset=PLANNER_MAX_OFFSET,
            sink_speed=PLANNER_SINK_SPEED,
            planner=PlannerConfig(kind=kind),
        )
        entries.append(
            _bench_cell(
                f"Planner[{kind}]",
                config,
                seed,
                repeat,
                {"plan_s": "planner.plan"},
            )
        )
    for name, num_sensors, path_length in scale_grid or ():
        config = ScenarioConfig(
            num_sensors=num_sensors,
            path_length=path_length,
            fixed_power=FIXED_POWER if requires_fixed_power(name) else None,
        )
        entries.append(_bench_cell(name, config, seed, repeat))
    for num_sensors, path_length in batch_grid or ():
        entries.append(_bench_batch_cell(num_sensors, path_length, seed, repeat))
    if grid is None and algorithms is None:
        for name, num_sensors, path_length in PERPETUAL_GRID:
            entries.append(_bench_perpetual_cell(name, num_sensors, path_length, seed, repeat))
        for name, num_sensors, path_length in CERTIFIED_GRID:
            entries.append(_bench_certified_cell(name, num_sensors, path_length, seed, repeat))
    return {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "quick": bool(quick),
        "seed": seed,
        "repeat": repeat,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "provenance": {**git_provenance(), "label": label},
        "entries": entries,
    }


def render_bench(document: Dict[str, object]) -> str:
    """Human-readable table of one :func:`run_bench` document."""
    lines = []
    provenance = document.get("provenance") or {}
    if provenance.get("git_commit"):
        dirty = " (dirty)" if provenance.get("git_dirty") else ""
        label = f" label={provenance['label']}" if provenance.get("label") else ""
        lines.append(f"commit {provenance['git_commit'][:12]}{dirty}{label}")
    lines.append(
        f"{'algorithm':<26} {'n':>5} {'wall ms':>9} {'solve ms':>9} {'Mb':>9}"
    )
    for entry in document["entries"]:
        solve_ms = entry["profile"].get("solve_s", 0.0) * 1e3
        lines.append(
            f"{entry['algorithm']:<26} {entry['num_sensors']:>5} "
            f"{entry['wall_s'] * 1e3:>9.1f} {solve_ms:>9.1f} "
            f"{entry['collected_megabits']:>9.2f}"
        )
    return "\n".join(lines)
