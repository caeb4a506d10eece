"""The bench diff engine: alignment, thresholds, report, CLI gating."""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.bench import run_bench
from repro.experiments.bench_compare import (
    COMPARE_FORMAT,
    CompareConfig,
    compare_bench,
    render_comparison,
)


def make_entry(
    algorithm="Offline_Appro",
    num_sensors=30,
    path_length=1500.0,
    wall_s=0.100,
    solve_s=0.080,
    build_s=0.015,
    counters=None,
    megabits=9.07,
):
    return {
        "algorithm": algorithm,
        "num_sensors": num_sensors,
        "path_length": path_length,
        "fixed_power": None,
        "seed": 3,
        "wall_s": wall_s,
        "collected_megabits": megabits,
        "profile": {
            "instance_build_s": build_s,
            "solve_s": solve_s,
            "verify_s": 0.002,
            "total_s": build_s + solve_s + 0.002,
        },
        "counters": dict(
            counters
            if counters is not None
            else {"knapsack.calls": 30.0, "matching.calls": 1.0, "tour.runs": 1.0}
        ),
        "timers": {},
    }


def make_doc(entries, seed=3):
    return {
        "format": "repro.bench",
        "version": 2,
        "quick": True,
        "seed": seed,
        "repeat": 1,
        "python": "3.11.0",
        "platform": "test",
        "provenance": {"git_commit": "a" * 40, "git_dirty": False, "label": None},
        "entries": list(entries),
    }


class TestCompare:
    def test_identical_documents_are_clean(self):
        doc = make_doc([make_entry(), make_entry(algorithm="Online_Appro")])
        cmp = compare_bench(doc, copy.deepcopy(doc))
        assert cmp["format"] == COMPARE_FORMAT
        assert cmp["ok"] is True
        assert cmp["findings"] == []
        assert len(cmp["cells"]) == 2
        assert cmp["unmatched_old"] == cmp["unmatched_new"] == []

    def test_doubled_counter_is_a_regression_naming_the_cell(self):
        old = make_doc([make_entry()])
        new = make_doc(
            [make_entry(counters={"knapsack.calls": 60.0, "matching.calls": 1.0,
                                  "tour.runs": 1.0})]
        )
        cmp = compare_bench(old, new)
        assert cmp["ok"] is False
        [finding] = cmp["regressions"]
        assert finding["kind"] == "counter"
        assert finding["metric"] == "knapsack.calls"
        assert finding["cell"] == "Offline_Appro @ n=30, L=1500"
        assert finding["old"] == 30.0 and finding["new"] == 60.0
        # The rendered report names the offending cell and fails the verdict.
        report = render_comparison(cmp)
        assert "Offline_Appro @ n=30, L=1500" in report
        assert "knapsack.calls" in report
        assert "verdict: REGRESSION" in report

    def test_counter_decrease_is_an_improvement_not_a_failure(self):
        old = make_doc([make_entry()])
        new = make_doc(
            [make_entry(counters={"knapsack.calls": 15.0, "matching.calls": 1.0,
                                  "tour.runs": 1.0})]
        )
        cmp = compare_bench(old, new)
        assert cmp["ok"] is True
        [finding] = cmp["improvements"]
        assert finding["metric"] == "knapsack.calls"

    def test_vanished_counter_is_a_warning(self):
        old = make_doc([make_entry()])
        new = make_doc(
            [make_entry(counters={"knapsack.calls": 30.0, "tour.runs": 1.0})]
        )
        cmp = compare_bench(old, new)
        assert cmp["ok"] is True
        assert any(
            f["metric"] == "matching.calls" and "vanished" in f["detail"]
            for f in cmp["warnings"]
        )

    def test_appeared_counter_is_a_warning(self):
        old = make_doc([make_entry()])
        new = make_doc(
            [
                make_entry(
                    counters={
                        "knapsack.calls": 30.0,
                        "matching.calls": 1.0,
                        "tour.runs": 1.0,
                        "batch.groups": 1.0,
                    }
                )
            ]
        )
        cmp = compare_bench(old, new)
        assert cmp["ok"] is True
        assert any(
            f["metric"] == "batch.groups" and "appeared" in f["detail"]
            for f in cmp["warnings"]
        )

    def test_counter_tolerance_bounds_drift(self):
        old = make_doc([make_entry()])
        new = make_doc(
            [make_entry(counters={"knapsack.calls": 33.0, "matching.calls": 1.0,
                                  "tour.runs": 1.0})]
        )
        assert compare_bench(old, new)["ok"] is False  # exact by default
        relaxed = compare_bench(old, new, CompareConfig(counter_tolerance=0.15))
        assert relaxed["ok"] is True

    def test_wall_regression_needs_threshold_and_noise_floor(self):
        old = make_doc([make_entry(wall_s=0.100, solve_s=0.080)])
        slow = make_doc([make_entry(wall_s=0.200, solve_s=0.170)])
        cmp = compare_bench(old, slow)
        assert cmp["ok"] is False
        metrics = {f["metric"] for f in cmp["regressions"]}
        assert "wall_s" in metrics and "solve_s" in metrics

    def test_sub_floor_jitter_never_regresses(self):
        # +200% relative, but only 2 ms absolute: under the 10 ms floor.
        old = make_doc([make_entry(wall_s=0.001, solve_s=0.001)])
        new = make_doc([make_entry(wall_s=0.003, solve_s=0.003)])
        assert compare_bench(old, new)["ok"] is True

    def test_wall_warn_only_demotes_to_warning(self):
        old = make_doc([make_entry(wall_s=0.100)])
        slow = make_doc([make_entry(wall_s=0.500)])
        cmp = compare_bench(old, slow, CompareConfig(wall_warn_only=True))
        assert cmp["ok"] is True
        assert any(f["metric"] == "wall_s" for f in cmp["warnings"])
        assert cmp["regressions"] == []

    def test_per_algorithm_threshold_overrides_default(self):
        old = make_doc([make_entry(wall_s=0.100, solve_s=0.001)])
        new = make_doc([make_entry(wall_s=0.150, solve_s=0.001)])
        # +50% fails the default 30%...
        assert compare_bench(old, new)["ok"] is False
        # ...but passes a 100% per-algorithm override.
        config = CompareConfig(
            per_algorithm_wall_tolerance={"Offline_Appro": 1.0}
        )
        assert compare_bench(old, new, config)["ok"] is True

    def test_baselines_get_wider_builtin_tolerance(self):
        # +50% / +50 ms on a baseline cell: inside the 60% built-in.
        old = make_doc([make_entry(algorithm="Baseline[random]", wall_s=0.100)])
        new = make_doc([make_entry(algorithm="Baseline[random]", wall_s=0.150)])
        assert compare_bench(old, new)["ok"] is True

    def test_wall_improvement_is_reported(self):
        old = make_doc([make_entry(wall_s=0.500, solve_s=0.450)])
        new = make_doc([make_entry(wall_s=0.100, solve_s=0.080)])
        cmp = compare_bench(old, new)
        assert cmp["ok"] is True
        assert any(f["metric"] == "wall_s" for f in cmp["improvements"])

    def test_output_drift_is_a_regression(self):
        old = make_doc([make_entry(megabits=9.07)])
        new = make_doc([make_entry(megabits=9.0701)])
        cmp = compare_bench(old, new)
        assert cmp["ok"] is False
        [finding] = cmp["regressions"]
        assert finding["kind"] == "output"

    def test_unmatched_cells_are_listed_not_failed(self):
        old = make_doc([make_entry(), make_entry(num_sensors=60)])
        new = make_doc([make_entry(), make_entry(algorithm="Online_Appro")])
        cmp = compare_bench(old, new)
        assert cmp["ok"] is True
        assert cmp["unmatched_old"] == ["Offline_Appro @ n=60, L=1500"]
        assert cmp["unmatched_new"] == ["Online_Appro @ n=30, L=1500"]
        report = render_comparison(cmp)
        assert "only in old document" in report
        assert "only in new document" in report

    def test_seed_mismatch_warns(self):
        old = make_doc([make_entry()], seed=3)
        new = make_doc([make_entry()], seed=4)
        cmp = compare_bench(old, new)
        assert any(f["metric"] == "seed" for f in cmp["warnings"])

    def test_comparison_is_json_serialisable(self):
        old = make_doc([make_entry()])
        new = make_doc([make_entry(wall_s=0.5)])
        cmp = compare_bench(old, new)
        assert json.loads(json.dumps(cmp)) == cmp

    def test_markdown_render(self):
        doc = make_doc([make_entry()])
        text = render_comparison(compare_bench(doc, doc), markdown=True)
        assert text.startswith("## bench compare")
        assert "| cell | metric |" in text


class TestAgainstRealBench:
    TINY_GRID = ((12, 1500.0),)
    TINY_ALGOS = ("Offline_Appro",)

    def test_two_real_runs_have_identical_counters_and_output(self):
        kwargs = dict(quick=True, seed=3, grid=self.TINY_GRID,
                      algorithms=self.TINY_ALGOS)
        first = run_bench(**kwargs)
        second = run_bench(**kwargs)
        cmp = compare_bench(first, second, CompareConfig(wall_warn_only=True))
        assert cmp["ok"] is True, cmp["regressions"]
        # Counters are machine-independent: no counter findings at all.
        assert [f for f in cmp["findings"] if f["kind"] == "counter"] == []


class TestCli:
    def test_parser_accepts_compare_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "bench",
                "--compare", "old.json", "new.json",
                "--wall-tolerance", "0.5",
                "--counter-tolerance", "0.01",
                "--noise-floor-ms", "25",
                "--wall-warn-only",
                "--markdown",
                "--report", str(tmp_path / "r.md"),
            ]
        )
        assert args.compare == ["old.json", "new.json"]
        assert args.wall_tolerance == 0.5
        assert args.counter_tolerance == 0.01
        assert args.noise_floor_ms == 25
        assert args.wall_warn_only is True

    def test_cli_exits_nonzero_on_doctored_counters(self, tmp_path, capsys):
        old = make_doc([make_entry()])
        doctored = copy.deepcopy(old)
        doctored["entries"][0]["counters"]["knapsack.calls"] *= 2
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(doctored))
        json_path = tmp_path / "cmp.json"
        code = main(
            ["bench", "--compare", str(old_path), str(new_path),
             "--json", str(json_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "knapsack.calls" in out
        assert "Offline_Appro @ n=30, L=1500" in out
        machine = json.loads(json_path.read_text())
        assert machine["ok"] is False
        assert machine["regressions"][0]["metric"] == "knapsack.calls"

    def test_cli_exits_zero_on_clean_compare(self, tmp_path, capsys):
        doc = make_doc([make_entry()])
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(doc))
        new_path.write_text(json.dumps(doc))
        report_path = tmp_path / "report.txt"
        code = main(
            ["bench", "--compare", str(old_path), str(new_path),
             "--report", str(report_path)]
        )
        assert code == 0
        assert "verdict: OK" in report_path.read_text()
        capsys.readouterr()
