"""Core benchmark: document shape, determinism knobs, CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser
from repro.experiments.bench import (
    BENCH_FORMAT,
    BENCH_VERSION,
    FULL_GRID,
    QUICK_GRID,
    render_bench,
    run_bench,
)

#: One tiny cell and two cheap algorithms — keeps the test in the tier-1 budget.
TINY_GRID = ((12, 1500.0),)
TINY_ALGOS = ("Baseline[greedy_profit]", "Offline_Appro")


@pytest.fixture(scope="module")
def tiny_doc():
    return run_bench(quick=True, seed=3, grid=TINY_GRID, algorithms=TINY_ALGOS)


def test_document_shape(tiny_doc):
    assert tiny_doc["format"] == BENCH_FORMAT
    assert tiny_doc["version"] == BENCH_VERSION
    assert tiny_doc["quick"] is True
    assert tiny_doc["seed"] == 3
    assert len(tiny_doc["entries"]) == len(TINY_GRID) * len(TINY_ALGOS)
    entry = tiny_doc["entries"][0]
    assert entry["algorithm"] == TINY_ALGOS[0]
    assert entry["num_sensors"] == 12
    assert entry["wall_s"] > 0
    assert entry["collected_megabits"] > 0
    assert "solve_s" in entry["profile"]


def test_entries_carry_solver_counters(tiny_doc):
    by_algo = {e["algorithm"]: e for e in tiny_doc["entries"]}
    appro = by_algo["Offline_Appro"]
    assert appro["counters"].get("knapsack.calls", 0) > 0
    assert appro["timers"]["tour.solve"]["count"] >= 1


def test_document_is_json_serialisable(tiny_doc):
    assert json.loads(json.dumps(tiny_doc)) == tiny_doc


def test_maxmatch_cells_pin_fixed_power():
    doc = run_bench(
        quick=True, seed=3, grid=TINY_GRID, algorithms=("Offline_MaxMatch",)
    )
    [entry] = doc["entries"]
    assert entry["fixed_power"] == 0.3
    assert entry["collected_megabits"] > 0


def test_render_bench_lists_every_entry(tiny_doc):
    text = render_bench(tiny_doc)
    lines = text.splitlines()
    # Header line, optional provenance line (present inside a git
    # checkout), then one line per entry.
    has_provenance = tiny_doc["provenance"].get("git_commit") is not None
    assert len(lines) == 1 + int(has_provenance) + len(tiny_doc["entries"])
    for entry in tiny_doc["entries"]:
        assert any(entry["algorithm"] in line for line in lines[1:])


def test_document_carries_provenance(tiny_doc):
    provenance = tiny_doc["provenance"]
    assert set(provenance) == {"git_commit", "git_dirty", "label"}
    assert tiny_doc["repeat"] == 1
    # This test suite runs inside a git checkout, so the SHA resolves.
    commit = provenance["git_commit"]
    if commit is not None:
        assert len(commit) == 40
        assert isinstance(provenance["git_dirty"], bool)


def test_label_lands_in_provenance_and_render():
    doc = run_bench(
        quick=True,
        seed=3,
        grid=TINY_GRID,
        algorithms=("Baseline[greedy_profit]",),
        label="ci-main",
    )
    assert doc["provenance"]["label"] == "ci-main"
    if doc["provenance"]["git_commit"] is not None:
        assert "label=ci-main" in render_bench(doc).splitlines()[0]


def test_repeat_takes_min_and_reports_spread():
    doc = run_bench(
        quick=True,
        seed=3,
        grid=TINY_GRID,
        algorithms=("Baseline[greedy_profit]",),
        repeat=3,
    )
    assert doc["repeat"] == 3
    [entry] = doc["entries"]
    stats = entry["wall_stats"]
    assert stats["repeats"] == 3
    assert stats["min_s"] <= stats["median_s"] <= stats["max_s"]
    assert entry["wall_s"] == stats["min_s"]


def test_repeat_must_be_positive():
    with pytest.raises(ValueError, match="repeat"):
        run_bench(quick=True, seed=3, grid=TINY_GRID,
                  algorithms=("Offline_Appro",), repeat=0)


def test_grids_are_distinct():
    assert QUICK_GRID != FULL_GRID
    assert all(n <= 60 for n, _ in QUICK_GRID)


def test_shrunk_runs_skip_planner_cells(tiny_doc):
    """Overriding grid/algorithms must not sneak planner cells in."""
    assert not any(
        e["algorithm"].startswith("Planner[") for e in tiny_doc["entries"]
    )


def test_planner_cells_run_plan_solve_pipeline():
    doc = run_bench(
        quick=True,
        seed=3,
        grid=(),
        algorithms=(),
        planner_grid=(("plane_sweep", 12, 1500.0), ("multi_sink", 12, 1500.0)),
    )
    names = [e["algorithm"] for e in doc["entries"]]
    assert names == ["Planner[plane_sweep]", "Planner[multi_sink]"]
    for entry in doc["entries"]:
        # The plan phase joins the wall profile, so the compare gate
        # grades planning time like any other phase.
        assert entry["profile"]["plan_s"] > 0
        assert entry["profile"]["plan_s"] <= entry["wall_s"]
        # Machine-independent planner work counters land in the cell.
        assert entry["counters"]["planner.plans"] == 1
        assert entry["collected_megabits"] > 0
    by_name = {e["algorithm"]: e for e in doc["entries"]}
    assert by_name["Planner[plane_sweep]"]["counters"]["planner.sweep.segments"] > 0


def test_default_quick_grid_includes_planner_cells():
    from repro.experiments.bench import PLANNER_QUICK_GRID

    kinds = {kind for kind, _, _ in PLANNER_QUICK_GRID}
    assert kinds == {"plane_sweep", "multi_sink"}


def test_scale_and_batch_cells_run_and_agree():
    from repro.experiments.bench import BATCH_ALGORITHMS

    doc = run_bench(
        quick=True,
        seed=3,
        grid=(),
        algorithms=(),
        scale_grid=(("Offline_Appro", 12, 1500.0),),
        batch_grid=((12, 1500.0),),
    )
    names = [e["algorithm"] for e in doc["entries"]]
    assert names == ["Offline_Appro", "Batch[mixed]"]
    scale, batch = doc["entries"]
    assert scale["num_sensors"] == 12
    assert scale["collected_megabits"] > 0
    # The batch cell runs every mixed algorithm through one shared
    # instance preparation and carries the batch work counters.
    assert batch["counters"]["batch.groups"] == 1
    assert batch["counters"]["batch.tours"] == len(BATCH_ALGORITHMS)
    assert batch["counters"]["tour.runs"] == len(BATCH_ALGORITHMS)
    assert batch["profile"]["prepare_s"] >= 0
    # Shared preparation means the batch's summed megabits include the
    # scale cell's algorithm on the identical deployment.
    assert batch["collected_megabits"] > scale["collected_megabits"]


def test_batch_cell_megabits_equals_sequential_sum():
    from repro.experiments.bench import BATCH_ALGORITHMS
    from repro.obs import MetricsRegistry, use_registry
    from repro.sim import ScenarioConfig, run_tour
    from repro.sim.algorithms import get_algorithm

    doc = run_bench(
        quick=True, seed=3, grid=(), algorithms=(), batch_grid=((12, 1500.0),)
    )
    [batch] = doc["entries"]
    total = 0.0
    for name in BATCH_ALGORITHMS:
        scenario = ScenarioConfig(num_sensors=12, path_length=1500.0).build(seed=3)
        with use_registry(MetricsRegistry()):
            result = run_tour(scenario, get_algorithm(name), mutate=False)
        total += result.collected_megabits
    assert batch["collected_megabits"] == total


def test_default_quick_grid_includes_scale_and_batch_cells():
    from repro.experiments.bench import BATCH_GRID, SCALE_GRID

    assert all(n >= 600 for _, n, _ in SCALE_GRID)
    assert all(n >= 600 for n, _ in BATCH_GRID)


def test_certified_cells_price_the_lp_bound():
    from repro.experiments.bench import CERTIFIED_GRID, _bench_certified_cell

    assert sorted(n for _, n, _ in CERTIFIED_GRID) == [100, 600]
    entry = _bench_certified_cell("Offline_Appro", 30, 1500.0, 3, 2)
    assert entry["algorithm"] == "Certified[Offline_Appro]"
    # One solve per repeat: each repeat builds its own instance.
    assert entry["counters"]["lp.calls"] == 1
    assert 0 < entry["profile"]["lp_bound_s"] <= entry["profile"]["certify_s"]
    [plain] = run_bench(
        quick=True, seed=3, grid=((30, 1500.0),), algorithms=("Offline_Appro",)
    )["entries"]
    assert entry["collected_megabits"] == plain["collected_megabits"]


def test_cli_accepts_bench_flags(tmp_path):
    parser = build_parser()
    args = parser.parse_args(
        ["bench", "--quick", "--seed", "11", "--json", str(tmp_path / "b.json")]
    )
    assert args.command == "bench"
    assert args.quick is True
    assert args.seed == 11
    args = parser.parse_args(["bench"])
    assert args.quick is False and args.json is None
    assert args.repeat == 1 and args.label is None and args.compare is None
    args = parser.parse_args(["bench", "--quick", "--repeat", "3",
                              "--label", "ci"])
    assert args.repeat == 3 and args.label == "ci"


def test_cli_bench_record_flag_forms():
    parser = build_parser()
    assert parser.parse_args(["bench"]).record is None
    assert parser.parse_args(["bench", "--record"]).record == "benchmarks/history"
    assert parser.parse_args(["bench", "--record", "hist"]).record == "hist"


def test_cli_accepts_new_serve_flags(tmp_path):
    parser = build_parser()
    args = parser.parse_args(
        [
            "serve",
            "--trace-threshold",
            "0.5",
            "--trace-dir",
            str(tmp_path),
            "--access-log",
            str(tmp_path / "access.log"),
        ]
    )
    assert args.trace_threshold == 0.5
    assert args.trace_dir == str(tmp_path)
    assert args.access_log == str(tmp_path / "access.log")
    args = parser.parse_args(["serve"])
    assert args.trace_threshold is None
    assert args.max_batch_items == 32
    args = parser.parse_args(["serve", "--max-batch-items", "8"])
    assert args.max_batch_items == 8
