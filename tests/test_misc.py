"""Final-mile coverage: CLI guards, seed derivation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


class TestCliGuards:
    def test_unknown_command_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["not-a-command"])

    def test_help_mentions_paper(self):
        from repro.cli import build_parser

        assert "Energy Harvesting" in build_parser().description

    def test_resolve_algorithm_name_shared_with_registry(self):
        from repro.cli import _resolve_algorithm_name
        from repro.sim.algorithms import resolve_algorithm_name

        assert resolve_algorithm_name("online_maxmatch") == "Online_MaxMatch"
        assert _resolve_algorithm_name("offline_appro") == "Offline_Appro"
        with pytest.raises(KeyError, match="choose from"):
            resolve_algorithm_name("nope")
        with pytest.raises(SystemExit):
            _resolve_algorithm_name("nope")


class TestCompareCli:
    ARGS = ["compare", "--sensors", "15", "--seed", "1"]

    def test_json_output_with_skipped_entries(self, capsys):
        import json

        from repro.cli import main

        assert main(self.ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro.compare"
        assert doc["topology"]["num_sensors"] == 15
        assert doc["lp_bound_megabits"] > 0
        row_fields = {
            "algorithm",
            "megabits",
            "lp_fraction",
            "build_ms",
            "solve_ms",
            "verify_ms",
            "messages",
        }
        assert doc["rows"] and all(set(r) == row_fields for r in doc["rows"])
        skipped = {entry["algorithm"] for entry in doc["skipped"]}
        assert skipped == {"Offline_MaxMatch", "Online_MaxMatch"}
        assert all("--fixed-power" in e["reason"] for e in doc["skipped"])

    def test_json_output_fixed_power_has_no_skips(self, capsys):
        import json

        from repro.cli import main

        assert main(self.ARGS + ["--fixed-power", "0.3", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["skipped"] == []
        names = {row["algorithm"] for row in doc["rows"]}
        assert {"Offline_MaxMatch", "Online_MaxMatch"} <= names

    def test_table_output_notes_skipped_algorithms(self, capsys):
        from repro.cli import main

        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "note: skipped Offline_MaxMatch, Online_MaxMatch" in out
        assert "--fixed-power" in out


@given(st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_sweep_seed_derivation_stable(root):
    """Seed derivation is pure: same inputs, same 64-bit output."""
    from repro.experiments.sweep import _derive_seed

    a = _derive_seed(root, (3,), 1)
    b = _derive_seed(root, (3,), 1)
    assert a == b
    assert _derive_seed(root, (3,), 2) != a or root < 0  # repeats differ
