"""Perf ledger: record, load, align, render, gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.obs import (
    build_trend,
    gate_trend,
    load_history,
    record_bench,
    render_trend,
    sparkline,
)
from repro.obs.trend import DEFAULT_HISTORY_DIR, TREND_FORMAT, TREND_VERSION

#: The ledger committed with the repository.
COMMITTED_HISTORY = Path(__file__).resolve().parents[1] / DEFAULT_HISTORY_DIR


def _bench_doc(
    label=None,
    commit="abc123def4567890",
    recorded_at=None,
    wall_s=0.010,
    counters=None,
    megabits=9.0,
    algorithm="Offline_Appro",
    extra_entries=(),
):
    doc = {
        "format": "repro.bench",
        "version": 2,
        "seed": 7,
        "repeat": 1,
        "provenance": {
            "git_commit": commit,
            "git_dirty": False,
            "label": label,
        },
        "entries": [
            {
                "algorithm": algorithm,
                "num_sensors": 30,
                "path_length": 1500.0,
                "seed": 7,
                "wall_s": wall_s,
                "collected_megabits": megabits,
                "profile": {
                    "instance_build_s": wall_s * 0.2,
                    "solve_s": wall_s * 0.6,
                    "verify_s": wall_s * 0.1,
                    "total_s": wall_s * 0.9,
                },
                "counters": dict(counters or {"knapsack.calls": 100.0}),
                "timers": {},
            },
            *extra_entries,
        ],
    }
    if recorded_at is not None:
        doc["recorded_at"] = recorded_at
    return doc


# ----------------------------------------------------------------------
# ledger I/O
# ----------------------------------------------------------------------
class TestRecordBench:
    def test_records_and_stamps(self, tmp_path):
        path = record_bench(_bench_doc(label="pr-1"), str(tmp_path))
        assert path.parent == tmp_path
        assert path.name.endswith("-abc123def456-pr-1.json")
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert stored["recorded_at"]
        assert stored["entries"][0]["algorithm"] == "Offline_Appro"

    def test_existing_recorded_at_is_kept(self, tmp_path):
        stamp = "2026-08-01T00:00:00+00:00"
        path = record_bench(_bench_doc(recorded_at=stamp), str(tmp_path))
        assert json.loads(path.read_text(encoding="utf-8"))["recorded_at"] == stamp
        assert path.name.startswith("20260801T000000")

    def test_append_only_on_collision(self, tmp_path):
        stamp = "2026-08-01T00:00:00+00:00"
        first = record_bench(_bench_doc(recorded_at=stamp), str(tmp_path))
        second = record_bench(_bench_doc(recorded_at=stamp), str(tmp_path))
        assert first != second
        assert first.exists() and second.exists()

    def test_label_is_slugged(self, tmp_path):
        path = record_bench(
            _bench_doc(label="PR #9: faster solve!"), str(tmp_path)
        )
        assert " " not in path.name
        assert "#" not in path.name

    def test_rejects_non_bench_documents(self, tmp_path):
        with pytest.raises(ValueError, match="not a bench document"):
            record_bench({"format": "repro.profile_report"}, str(tmp_path))

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "history"
        record_bench(_bench_doc(), str(target))
        assert target.is_dir()


class TestLoadHistory:
    def test_missing_directory_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "nope")) == []

    def test_orders_by_recorded_at(self, tmp_path):
        record_bench(
            _bench_doc(label="new", recorded_at="2026-08-02T00:00:00+00:00"),
            str(tmp_path),
        )
        record_bench(
            _bench_doc(label="old", recorded_at="2026-08-01T00:00:00+00:00"),
            str(tmp_path),
        )
        history = load_history(str(tmp_path))
        labels = [doc["provenance"]["label"] for _, doc in history]
        assert labels == ["old", "new"]

    def test_skips_junk_files(self, tmp_path):
        record_bench(_bench_doc(), str(tmp_path))
        (tmp_path / "README.json").write_text("not json{", encoding="utf-8")
        (tmp_path / "other.json").write_text(
            json.dumps({"format": "repro.compare"}), encoding="utf-8"
        )
        (tmp_path / "notes.txt").write_text("ignored", encoding="utf-8")
        assert len(load_history(str(tmp_path))) == 1


# ----------------------------------------------------------------------
# trend document
# ----------------------------------------------------------------------
class TestBuildTrend:
    def test_envelope_and_alignment(self):
        docs = [
            _bench_doc(label="a", wall_s=0.010),
            _bench_doc(label="b", wall_s=0.012),
        ]
        trend = build_trend(docs, files=["a.json", "b.json"])
        assert trend["format"] == TREND_FORMAT
        assert trend["version"] == TREND_VERSION
        assert [p["label"] for p in trend["points"]] == ["a", "b"]
        assert [p["file"] for p in trend["points"]] == ["a.json", "b.json"]
        (cell,) = trend["cells"]
        assert cell["cell"] == "Offline_Appro @ n=30, L=1500"
        assert cell["wall_s"] == [0.010, 0.012]
        assert cell["phases"]["solve_s"] == pytest.approx([0.006, 0.0072])
        assert cell["counters"]["knapsack.calls"] == [100.0, 100.0]
        assert cell["collected_megabits"] == [9.0, 9.0]

    def test_missing_cells_become_none_holes(self):
        docs = [
            _bench_doc(algorithm="Offline_Appro"),
            _bench_doc(algorithm="Online_Appro"),
            _bench_doc(algorithm="Offline_Appro"),
        ]
        trend = build_trend(docs)
        by_name = {c["algorithm"]: c for c in trend["cells"]}
        offline = by_name["Offline_Appro"]
        online = by_name["Online_Appro"]
        assert offline["wall_s"][1] is None
        assert online["wall_s"][0] is None and online["wall_s"][2] is None
        # Every series spans every point.
        for cell in trend["cells"]:
            assert len(cell["wall_s"]) == 3
            assert len(cell["collected_megabits"]) == 3
            for series in cell["phases"].values():
                assert len(series) == 3
            for series in cell["counters"].values():
                assert len(series) == 3

    def test_point_label_falls_back_to_commit(self):
        trend = build_trend([_bench_doc(label=None)])
        assert trend["points"][0]["label"] == "abc123def456"

    def test_json_roundtrip(self):
        trend = build_trend([_bench_doc(label="a"), _bench_doc(label="b")])
        assert json.loads(json.dumps(trend)) == trend


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
class TestRender:
    def test_sparkline_shapes(self):
        assert sparkline([1.0, 2.0, 3.0]) == "▁▅█"
        assert sparkline([None, 1.0, None]) == "·▁·"
        assert sparkline([2.0, 2.0]) == "▁▁"
        assert sparkline([]) == ""

    def test_render_mentions_cells_and_deltas(self):
        docs = [
            _bench_doc(label="a", wall_s=0.010),
            _bench_doc(label="b", wall_s=0.020),
        ]
        text = render_trend(build_trend(docs))
        assert "perf trajectory: 2 points, 1 cells" in text
        assert "Offline_Appro @ n=30, L=1500:" in text
        assert "wall_s" in text and "solve_s" in text
        assert "(+100.0%)" in text
        assert "collected_megabits" in text
        assert "(1 work counters unchanged)" in text

    def test_render_shows_changed_counters(self):
        docs = [
            _bench_doc(label="a", counters={"knapsack.calls": 100.0}),
            _bench_doc(label="b", counters={"knapsack.calls": 150.0}),
        ]
        text = render_trend(build_trend(docs))
        assert "knapsack.calls" in text


# ----------------------------------------------------------------------
# gating
# ----------------------------------------------------------------------
class TestGate:
    def _trend(self, walls, counters=None, megabits=None):
        docs = []
        for index, wall in enumerate(walls):
            docs.append(
                _bench_doc(
                    label=f"r{index}",
                    wall_s=wall,
                    counters=(
                        {"knapsack.calls": counters[index]} if counters else None
                    ),
                    megabits=megabits[index] if megabits else 9.0,
                )
            )
        return build_trend(docs)

    def test_clean_history_passes(self):
        verdict = gate_trend(self._trend([0.050, 0.030, 0.040]))
        assert verdict["ok"] is True
        assert verdict["findings"] == []

    def test_monotone_wall_rise_above_floor_flags(self):
        verdict = gate_trend(self._trend([0.050, 0.075, 0.100]))
        assert verdict["ok"] is False
        metrics = {f["metric"] for f in verdict["findings"]}
        assert "wall_s" in metrics
        kinds = {f["kind"] for f in verdict["findings"]}
        assert kinds == {"wall"}

    def test_sub_floor_wall_rise_is_ignored(self):
        # +4 ms end to end: monotone but under the 10 ms noise floor.
        verdict = gate_trend(self._trend([0.050, 0.052, 0.054]))
        assert verdict["ok"] is True

    def test_small_relative_wall_rise_is_ignored(self):
        # +12 ms absolute but only +2.4% relative on a 500 ms phase.
        verdict = gate_trend(self._trend([0.500, 0.506, 0.512]))
        assert verdict["ok"] is True

    def test_monotone_counter_growth_gates_bare(self):
        verdict = gate_trend(
            self._trend([0.010, 0.010, 0.010], counters=[100.0, 101.0, 102.0])
        )
        assert verdict["ok"] is False
        assert any(f["kind"] == "counter" for f in verdict["findings"])

    def test_monotone_megabit_decline_flags(self):
        verdict = gate_trend(
            self._trend([0.010, 0.010, 0.010], megabits=[9.0, 8.9, 8.8])
        )
        assert verdict["ok"] is False
        assert any(f["kind"] == "output" for f in verdict["findings"])

    def test_monotone_megabit_rise_flags(self):
        # Output is deterministic given the seed: drift either way is a
        # regression, not an improvement.
        verdict = gate_trend(
            self._trend([0.010, 0.010, 0.010], megabits=[9.0, 9.1, 9.2])
        )
        assert verdict["ok"] is False
        assert [f["kind"] for f in verdict["findings"]] == ["output"]

    def test_non_monotone_counter_passes(self):
        verdict = gate_trend(
            self._trend([0.010, 0.010, 0.010], counters=[100.0, 102.0, 101.0])
        )
        assert verdict["ok"] is True

    def test_short_history_is_skipped(self):
        verdict = gate_trend(self._trend([0.050, 0.100]), last=3)
        assert verdict["ok"] is True

    def test_window_limits_lookback(self):
        # Worsening only inside the last 2; the early good run is out of
        # window.
        verdict = gate_trend(self._trend([0.100, 0.050, 0.100]), last=2)
        assert verdict["ok"] is False

    def test_last_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            gate_trend(self._trend([0.010]), last=1)

    def test_verdict_is_json_ready(self):
        verdict = gate_trend(self._trend([0.050, 0.075, 0.100]))
        assert json.loads(json.dumps(verdict)) == verdict


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTrendCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["trend"])
        assert args.dir == "benchmarks/history"
        assert args.json is None
        assert args.gate is False
        # The gate window is fixed, not a flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trend", "--last", "4"])

    def test_empty_history_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["trend", "--dir", str(tmp_path / "none")])
        assert code == 2
        assert "no bench documents" in capsys.readouterr().err

    def test_renders_recorded_history(self, tmp_path, capsys):
        from repro.cli import main

        record_bench(_bench_doc(label="a"), str(tmp_path))
        record_bench(_bench_doc(label="b", wall_s=0.02), str(tmp_path))
        code = main(["trend", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "perf trajectory: 2 points" in out

    def test_json_stdout_roundtrips(self, tmp_path, capsys):
        from repro.cli import main

        record_bench(_bench_doc(label="a"), str(tmp_path))
        record_bench(_bench_doc(label="b"), str(tmp_path))
        code = main(["trend", "--dir", str(tmp_path), "--json", "-"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["format"] == TREND_FORMAT
        assert len(doc["points"]) == 2
        assert [p["label"] for p in doc["points"]] == ["a", "b"]

    def test_json_file_written_alongside_render(self, tmp_path, capsys):
        from repro.cli import main

        record_bench(_bench_doc(label="a"), str(tmp_path))
        out_path = tmp_path / "trend.json"
        code = main(
            ["trend", "--dir", str(tmp_path), "--json", str(out_path)]
        )
        assert code == 0
        assert json.loads(out_path.read_text(encoding="utf-8"))["points"]
        assert "perf trajectory" in capsys.readouterr().out

    def test_gate_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        for wall in (0.050, 0.075, 0.100):
            record_bench(
                _bench_doc(label=f"w{wall}", wall_s=wall), str(tmp_path)
            )
        code = main(["trend", "--dir", str(tmp_path), "--gate"])
        out = capsys.readouterr().out
        assert code == 1
        assert "✗ [regression] Offline_Appro @ n=30, L=1500 wall_s" in out
        assert out.rstrip().endswith("verdict: REGRESSION")

    def test_gate_passes_on_clean_history(self, tmp_path, capsys):
        from repro.cli import main

        for wall in (0.050, 0.030, 0.040):
            record_bench(
                _bench_doc(label=f"w{wall}", wall_s=wall), str(tmp_path)
            )
        code = main(["trend", "--dir", str(tmp_path), "--gate"])
        assert code == 0
        assert capsys.readouterr().out.rstrip().endswith("verdict: OK")


# ----------------------------------------------------------------------
# the committed ledger
# ----------------------------------------------------------------------
class TestCommittedLedger:
    def test_committed_history_passes_the_gate(self, capsys):
        from repro.cli import main

        assert len(load_history(str(COMMITTED_HISTORY))) >= 3
        code = main(["trend", "--dir", str(COMMITTED_HISTORY), "--gate"])
        assert code == 0, capsys.readouterr().out

    def test_doctored_solve_gates_only_on_the_same_platform(self, tmp_path, capsys):
        from repro.cli import main

        _, newest = load_history(str(COMMITTED_HISTORY))[-1]
        doctored = copy.deepcopy(newest)
        entry = next(
            e for e in doctored["entries"] if e["algorithm"] == "Offline_Appro"
        )
        entry["profile"]["solve_s"] = entry["profile"]["solve_s"] * 1.5 + 0.050
        finding = (
            f"Offline_Appro @ n={entry['num_sensors']}, "
            f"L={entry['path_length']:g} solve_s"
        )
        newest_path = tmp_path / "newest.json"
        newest_path.write_text(json.dumps(newest), encoding="utf-8")

        def compare(document):
            path = tmp_path / "doctored.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            code = main(["bench", "--compare", str(newest_path), str(path)])
            return code, capsys.readouterr().out

        code, out = compare(doctored)
        assert code == 1
        assert f"✗ [regression] {finding}" in out
        assert "gate over the last 2 points: 1 regressions, 0 warnings" in out

        code, out = compare({**doctored, "platform": "another-machine"})
        assert code == 0
        assert f"! [warning] {finding}" in out
        assert "gate over the last 2 points: 0 regressions, 1 warnings" in out
        assert out.rstrip().endswith("verdict: OK")

    def test_doctored_batch_prepare_is_graded(self, tmp_path, capsys):
        """``Batch[mixed]``'s shared build (``prepare_s``) is a graded
        wall phase like ``scenario_build_s``."""
        from repro.cli import main
        from repro.obs.trend import WALL_NOISE_FLOOR_S, WALL_TOLERANCE

        _, newest = load_history(str(COMMITTED_HISTORY))[-1]
        doctored = copy.deepcopy(newest)
        entry = next(e for e in doctored["entries"] if e["algorithm"] == "Batch[mixed]")
        before = entry["profile"]["prepare_s"]
        # Past the relative tolerance and the absolute floor, both.
        entry["profile"]["prepare_s"] = before * (1 + WALL_TOLERANCE) + WALL_NOISE_FLOOR_S + 0.001
        paths = []
        for name, document in (("newest", newest), ("doctored", doctored)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(document), encoding="utf-8")
        code = main(["bench", "--compare", *map(str, paths)])
        out = capsys.readouterr().out
        finding = (
            f"Batch[mixed] @ n={entry['num_sensors']}, L={entry['path_length']:g} prepare_s"
        )
        assert code == 1
        assert f"✗ [regression] {finding}" in out
        assert "gate over the last 2 points: 1 regressions, 0 warnings" in out
