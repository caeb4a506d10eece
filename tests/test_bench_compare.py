"""``bench --compare``: the ledger gate over two documents.

Alignment, the wall/counter/output policy, the platform rule, the
report and the CLI exit codes.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.bench import run_bench
from repro.obs import compare_bench, render_trend
from repro.obs.trend import TREND_FORMAT


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


def findings(cmp, severity):
    return [f for f in cmp["gate"]["findings"] if f["severity"] == severity]


class TestCompare:
    def test_identical_documents_are_clean(self):
        doc = make_doc([make_entry(), make_entry(algorithm="Online_Appro")])
        cmp = compare_bench(doc, copy.deepcopy(doc))
        assert cmp["format"] == TREND_FORMAT
        assert cmp["gate"]["ok"] is True
        assert cmp["gate"]["window"] == 2
        assert cmp["gate"]["findings"] == []
        assert len(cmp["cells"]) == 2

    def test_doubled_counter_is_a_regression_naming_the_cell(self):
        old = make_doc([make_entry()])
        new = make_doc(
            [make_entry(counters={"knapsack.calls": 60.0, "matching.calls": 1.0,
                                  "tour.runs": 1.0})]
        )
        cmp = compare_bench(old, new)
        assert cmp["gate"]["ok"] is False
        [finding] = findings(cmp, "regression")
        assert finding["kind"] == "counter"
        assert finding["metric"] == "knapsack.calls"
        assert finding["cell"] == "Offline_Appro @ n=30, L=1500"
        assert finding["window"] == [30.0, 60.0]
        # The rendered report names the offending cell and fails the verdict.
        report = render_trend(cmp)
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
        assert cmp["gate"]["ok"] is True
        [finding] = findings(cmp, "improvement")
        assert finding["metric"] == "knapsack.calls"

    def test_vanished_counter_is_a_warning(self):
        old = make_doc([make_entry()])
        new = make_doc(
            [make_entry(counters={"knapsack.calls": 30.0, "tour.runs": 1.0})]
        )
        cmp = compare_bench(old, new)
        assert cmp["gate"]["ok"] is True
        assert any(
            f["metric"] == "matching.calls" and "vanished" in f["detail"]
            for f in findings(cmp, "warning")
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
        assert cmp["gate"]["ok"] is True
        assert any(
            f["metric"] == "batch.groups" and "appeared" in f["detail"]
            for f in findings(cmp, "warning")
        )

    def test_counter_tolerance_bounds_drift(self):
        old = make_doc([make_entry()])
        new = make_doc(
            [make_entry(counters={"knapsack.calls": 33.0, "matching.calls": 1.0,
                                  "tour.runs": 1.0})]
        )
        # +10% work: counters gate exactly, there is no tolerance.
        cmp = compare_bench(old, new)
        assert cmp["gate"]["ok"] is False
        [finding] = findings(cmp, "regression")
        assert finding["metric"] == "knapsack.calls"

    def test_wall_regression_needs_threshold_and_noise_floor(self):
        old = make_doc([make_entry(wall_s=0.100, solve_s=0.080)])
        slow = make_doc([make_entry(wall_s=0.200, solve_s=0.170)])
        cmp = compare_bench(old, slow)
        assert cmp["gate"]["ok"] is False
        metrics = {f["metric"] for f in findings(cmp, "regression")}
        assert "wall_s" in metrics and "solve_s" in metrics

    def test_sub_floor_jitter_never_regresses(self):
        # +200% relative, but only 2 ms absolute: under the 10 ms floor.
        old = make_doc([make_entry(wall_s=0.001, solve_s=0.001)])
        new = make_doc([make_entry(wall_s=0.003, solve_s=0.003)])
        assert compare_bench(old, new)["gate"]["ok"] is True

    def test_wall_warn_only_demotes_to_warning(self):
        # Walls gate only between documents from the same platform and
        # Python; across machines a wall regression is a warning.
        old = make_doc([make_entry(wall_s=0.100)])
        slow = make_doc([make_entry(wall_s=0.500)])
        assert compare_bench(old, slow)["gate"]["ok"] is False
        for field, value in (("platform", "other-machine"), ("python", "3.12.0")):
            cmp = compare_bench(old, {**slow, field: value})
            assert cmp["gate"]["ok"] is True
            assert cmp["gate"]["walls_gated"] is False
            assert any(f["metric"] == "wall_s" for f in findings(cmp, "warning"))
            assert findings(cmp, "regression") == []
            assert "walls warn only" in render_trend(cmp)

    def test_per_algorithm_threshold_overrides_default(self):
        old = make_doc([make_entry(wall_s=0.100, solve_s=0.001)])
        new = make_doc([make_entry(wall_s=0.150, solve_s=0.001)])
        # +50% fails the default 30%...
        assert compare_bench(old, new)["gate"]["ok"] is False
        # ...but not the 60% a baseline cell gets.
        baseline = {"algorithm": "Baseline[round_robin]"}
        old["entries"][0].update(baseline)
        new["entries"][0].update(baseline)
        assert compare_bench(old, new)["gate"]["ok"] is True

    def test_baselines_get_wider_builtin_tolerance(self):
        # +50% / +50 ms on a baseline cell: inside the 60% built-in.
        old = make_doc([make_entry(algorithm="Baseline[random]", wall_s=0.100)])
        new = make_doc([make_entry(algorithm="Baseline[random]", wall_s=0.150)])
        assert compare_bench(old, new)["gate"]["ok"] is True

    def test_wall_improvement_is_reported(self):
        old = make_doc([make_entry(wall_s=0.500, solve_s=0.450)])
        new = make_doc([make_entry(wall_s=0.100, solve_s=0.080)])
        cmp = compare_bench(old, new)
        assert cmp["gate"]["ok"] is True
        assert any(f["metric"] == "wall_s" for f in findings(cmp, "improvement"))

    def test_output_drift_is_a_regression(self):
        old = make_doc([make_entry(megabits=9.07)])
        new = make_doc([make_entry(megabits=9.0701)])
        cmp = compare_bench(old, new)
        assert cmp["gate"]["ok"] is False
        [finding] = findings(cmp, "regression")
        assert finding["kind"] == "output"

    def test_unmatched_cells_are_listed_not_failed(self):
        old = make_doc([make_entry(), make_entry(num_sensors=60)])
        new = make_doc([make_entry(), make_entry(algorithm="Online_Appro")])
        cmp = compare_bench(old, new)
        assert cmp["gate"]["ok"] is True
        unmatched = {
            f["cell"]: f["detail"] for f in findings(cmp, "warning")
            if f["kind"] == "cell"
        }
        assert unmatched == {
            "Offline_Appro @ n=60, L=1500": "cell absent from point(s) [1]",
            "Online_Appro @ n=30, L=1500": "cell absent from point(s) [0]",
        }
        report = render_trend(cmp)
        assert "cell absent from point(s) [1]" in report
        assert "cell absent from point(s) [0]" in report

    def test_seed_mismatch_warns(self):
        old = make_doc([make_entry()], seed=3)
        new = make_doc([make_entry()], seed=4)
        cmp = compare_bench(old, new)
        assert any(f["metric"] == "seed" for f in findings(cmp, "warning"))

    def test_comparison_is_json_serialisable(self):
        old = make_doc([make_entry()])
        new = make_doc([make_entry(wall_s=0.5)])
        cmp = compare_bench(old, new)
        assert json.loads(json.dumps(cmp)) == cmp


class TestAgainstRealBench:
    TINY_GRID = ((12, 1500.0),)
    TINY_ALGOS = ("Offline_Appro",)

    def test_two_real_runs_have_identical_counters_and_output(self):
        kwargs = dict(quick=True, seed=3, grid=self.TINY_GRID,
                      algorithms=self.TINY_ALGOS)
        first = run_bench(**kwargs)
        # Walls of two runs on one machine would gate; this test checks
        # counters and output only.
        second = {**run_bench(**kwargs), "platform": "another-machine"}
        cmp = compare_bench(first, second)
        assert cmp["gate"]["ok"] is True, findings(cmp, "regression")
        # Counters are machine-independent: no counter findings at all.
        assert [f for f in cmp["gate"]["findings"] if f["kind"] == "counter"] == []


class TestCli:
    def test_parser_accepts_compare_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "bench",
                "--compare", "old.json", "new.json",
                "--json", str(tmp_path / "cmp.json"),
            ]
        )
        assert args.compare == ["old.json", "new.json"]
        assert args.json == str(tmp_path / "cmp.json")
        # One policy: the thresholds are not flags.
        for flag in ("--wall-tolerance", "--counter-tolerance",
                     "--noise-floor-ms", "--wall-warn-only", "--markdown",
                     "--report"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["bench", "--compare", "old.json", "new.json", flag]
                )

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
        assert machine["gate"]["ok"] is False
        assert findings(machine, "regression")[0]["metric"] == "knapsack.calls"
        assert "verdict: REGRESSION" in out

    def test_cli_exits_zero_on_clean_compare(self, tmp_path, capsys):
        doc = make_doc([make_entry()])
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(doc))
        new_path.write_text(json.dumps(doc))
        code = main(["bench", "--compare", str(old_path), str(new_path)])
        assert code == 0
        assert "verdict: OK" in capsys.readouterr().out
