"""Deep profiling attribution: DeepProfiler, folded stacks, wiring."""

import json
import re

import pytest

from repro.obs import (
    DeepProfiler,
    MetricsRegistry,
    NullProfiler,
    get_profiler,
    phase,
    profile_report,
    set_profiler,
    use_profiler,
    use_registry,
)
from repro.obs.profiling import _frame_label
from repro.planning import PlannerConfig
from repro.sim.algorithms import get_algorithm
from repro.sim.scenario import ScenarioConfig
from repro.sim.simulator import run_tour

#: Every folded line is ``frame(;frame)* <count>`` — one space, integer.
FOLDED_LINE = re.compile(r"^\S+(?:;\S+)* \d+$")


def _burn(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def _alloc(n):
    return [list(range(50)) for _ in range(n)]


# ----------------------------------------------------------------------
# DeepProfiler core
# ----------------------------------------------------------------------
class TestDeepProfiler:
    def test_phase_capture_and_attribution(self):
        profiler = DeepProfiler(top=10)
        try:
            with profiler.phase("solve"):
                _burn(20_000)
            with profiler.phase("solve"):
                _burn(20_000)
            with profiler.phase("verify"):
                _alloc(10)
        finally:
            # Left running, tracemalloc slows every later test.
            profiler.close()
        att = profiler.attribution()
        assert att["top"] == 10
        assert set(att["phases"]) == {"solve", "verify"}
        solve = att["phases"]["solve"]
        assert solve["calls"] == 2
        assert solve["functions"] >= 1
        assert solve["profiled_time_s"] > 0
        names = [row["function"] for row in solve["hot_functions"]]
        assert any("_burn" in name for name in names)

    def test_hot_function_rows_shape_and_order(self):
        profiler = DeepProfiler(top=5)
        try:
            with profiler.phase("solve"):
                _burn(10_000)
                _alloc(100)
        finally:
            profiler.close()
        rows = profiler.attribution()["phases"]["solve"]["hot_functions"]
        assert len(rows) <= 5
        for row in rows:
            assert set(row) == {
                "function",
                "calls",
                "primitive_calls",
                "self_ms",
                "cumulative_ms",
            }
        self_ms = [row["self_ms"] for row in rows]
        assert self_ms == sorted(self_ms, reverse=True)

    def test_peak_memory_tracked_per_phase(self):
        profiler = DeepProfiler()
        try:
            with profiler.phase("small"):
                _alloc(1)
            with profiler.phase("big"):
                keep = _alloc(2000)  # noqa: F841 - held until phase exit
            att = profiler.attribution()
            assert att["memory"] is True
            assert att["phases"]["big"]["peak_memory_bytes"] > (
                att["phases"]["small"]["peak_memory_bytes"]
            )
        finally:
            profiler.close()

    def test_memory_disabled_reports_none(self):
        profiler = DeepProfiler(memory=False)
        with profiler.phase("solve"):
            _burn(1000)
        att = profiler.attribution()
        assert att["memory"] is False
        assert att["phases"]["solve"]["peak_memory_bytes"] is None

    def test_nested_phase_is_noop(self):
        # cProfile cannot nest; the inner phase must not raise and must
        # not create its own attribution bucket.
        profiler = DeepProfiler(memory=False)
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                _burn(1000)
        att = profiler.attribution()
        assert "outer" in att["phases"]
        assert "inner" not in att["phases"]

    def test_folded_lines_are_well_formed(self):
        profiler = DeepProfiler(memory=False)
        with profiler.phase("solve"):
            _burn(50_000)
        folded = profiler.folded()
        lines = folded.splitlines()
        assert lines
        for line in lines:
            assert FOLDED_LINE.match(line), line
        assert all(line.startswith("solve") for line in lines)
        assert any("_burn" in line for line in lines)

    def test_folded_counts_are_deduped(self):
        profiler = DeepProfiler(memory=False)
        with profiler.phase("solve"):
            _burn(10_000)
        lines = profiler.folded().splitlines()
        stacks = [line.rsplit(" ", 1)[0] for line in lines]
        assert len(stacks) == len(set(stacks))

    def test_frame_labels_have_no_separator_chars(self):
        label = _frame_label(("a dir/my file.py", 3, "method <locals>"))
        assert ";" not in label
        assert " " not in label


# ----------------------------------------------------------------------
# Null/global accessors
# ----------------------------------------------------------------------
class TestGlobalProfiler:
    def test_default_is_null(self):
        assert isinstance(get_profiler(), NullProfiler)

    def test_null_profiler_records_nothing(self):
        null = NullProfiler()
        with null.phase("solve"):
            _burn(1000)
        assert null.attribution()["phases"] == {}
        assert null.folded() == ""

    def test_use_profiler_swaps_and_restores(self):
        profiler = DeepProfiler(memory=False)
        with use_profiler(profiler) as active:
            assert active is profiler
            assert get_profiler() is profiler
            with phase("tour.solve", deep=True):
                _burn(1000)
        assert isinstance(get_profiler(), NullProfiler)
        assert "solve" in profiler.attribution()["phases"]

    def test_set_profiler_returns_previous(self):
        profiler = DeepProfiler(memory=False)
        previous = set_profiler(profiler)
        try:
            assert get_profiler() is profiler
        finally:
            set_profiler(previous)
        assert get_profiler() is previous

    def test_profile_phase_without_profiler_is_free(self):
        with phase("anything", deep=True):
            pass  # must not raise, must not record


# ----------------------------------------------------------------------
# run_tour / planner / report wiring
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deep_tour():
    profiler = DeepProfiler()
    registry = MetricsRegistry()
    config = ScenarioConfig(
        num_sensors=100,
        path_length=3000.0,
        max_offset=300.0,
        sink_speed=10.0,
        planner=PlannerConfig(kind="plane_sweep"),
    )
    with use_registry(registry), use_profiler(profiler):
        scenario = config.build(seed=7)
        result = run_tour(scenario, get_algorithm("Offline_Appro"), mutate=False)
    return profiler, registry, result


class TestRunTourIntegration:
    def test_all_phases_attributed(self, deep_tour):
        profiler, _, _ = deep_tour
        phases = profiler.attribution()["phases"]
        assert set(phases) == {"plan", "instance_build", "solve", "verify"}

    def test_at_least_ten_frames_per_phase(self, deep_tour):
        # The ISSUE acceptance bar: >= 10 attributed frames per phase on
        # a 100-sensor scenario.
        profiler, _, _ = deep_tour
        for name, block in profiler.attribution()["phases"].items():
            assert len(block["hot_functions"]) >= 10, name

    def test_peak_memory_positive_per_phase(self, deep_tour):
        profiler, _, _ = deep_tour
        for name, block in profiler.attribution()["phases"].items():
            assert block["peak_memory_bytes"] > 0, name

    def test_folded_covers_phases(self, deep_tour):
        profiler, _, _ = deep_tour
        lines = profiler.folded().splitlines()
        for line in lines:
            assert FOLDED_LINE.match(line), line
        prefixes = {line.split(";", 1)[0].split(" ", 1)[0] for line in lines}
        assert {"plan", "instance_build", "solve", "verify"} <= prefixes

    def test_report_gains_deep_and_plan_phase(self, deep_tour):
        profiler, registry, result = deep_tour
        report = profile_report(
            result, registry, algorithm="Offline_Appro",
            deep=profiler.attribution(),
        )
        assert report["version"] == 1
        assert report["deep"]["phases"]["solve"]["hot_functions"]
        assert report["phases"]["plan_s"] > 0
        json.dumps(report)  # stays JSON-serialisable

    def test_report_without_deep_has_no_key(self, deep_tour):
        _, registry, result = deep_tour
        report = profile_report(result, registry, algorithm="Offline_Appro")
        assert "deep" not in report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestProfileCli:
    def test_parser_accepts_deep_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["profile", "--deep", "--folded", "out.folded"]
        )
        assert args.deep is True
        assert args.folded == "out.folded"
        args = build_parser().parse_args(["profile"])
        assert args.deep is False
        assert args.folded is None

    def test_folded_requires_deep(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["profile", "--sensors", "20", "--folded", "x.folded"])

    def test_end_to_end_deep_profile(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.json"
        folded = tmp_path / "profile.folded"
        code = main(
            [
                "profile",
                "--sensors",
                "30",
                "--seed",
                "3",
                "--deep",
                "--output",
                str(out),
                "--folded",
                str(folded),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert "deep" in report
        assert report["deep"]["phases"]["solve"]["peak_memory_bytes"] > 0
        lines = folded.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            assert FOLDED_LINE.match(line), line

    def test_default_folded_path_derives_from_output(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "report.json"
        code = main(
            ["profile", "--sensors", "20", "--seed", "1", "--deep",
             "--output", str(out)]
        )
        assert code == 0
        assert (tmp_path / "report.folded").exists()
