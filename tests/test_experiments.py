"""Figure experiments (reduced scale) and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import fig2, fig3, fig4
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.report import format_records, format_series_table
from repro.experiments.sweep import Claim, SweepResult

SMALL = dict(repeats=1, sizes=(30,), jobs=1)


@pytest.fixture(scope="module")
def fig2_result():
    return fig2.run(panels=((5.0, 1.0),), **SMALL)


@pytest.fixture(scope="module")
def fig3_result():
    return fig3.run(speeds=(5.0,), **SMALL)


@pytest.fixture(scope="module")
def fig4_result():
    return fig4.run(taus=(1.0, 4.0), **SMALL)


class TestFig2:
    def test_series_present(self, fig2_result):
        assert set(fig2_result.algorithms()) == {"Offline_Appro", "Online_Appro"}

    def test_positive_throughput(self, fig2_result):
        assert all(r.collected_bits > 0 for r in fig2_result.records)

    def test_offline_at_least_online(self, fig2_result):
        by_algo = {
            r.algorithm: r.collected_bits for r in fig2_result.records
        }
        assert by_algo["Offline_Appro"] >= by_algo["Online_Appro"] - 1e-6

    def test_check_holds_unswept_claims_vacuously(self, fig2_result):
        # One size and one panel: growth in n and the panel order are
        # not swept, so those claims hold with no measured value.
        rows = {c.name: c for c in fig2.check(fig2_result)}
        assert rows["grows_with_n"] == Claim("grows_with_n", True, None)
        assert rows["faster_sink_collects_less"] == Claim("faster_sink_collects_less", True, None)
        assert rows["online_ge_0.85_offline"].value is not None

    def test_report_mentions_panels(self, fig2_result):
        text = fig2.report(fig2_result)
        assert "Figure 2" in text
        assert "r_s=5" in text
        assert "Offline_Appro" in text


class TestFig3:
    def test_all_four_algorithms(self, fig3_result):
        assert set(fig3_result.algorithms()) == {
            "Offline_MaxMatch",
            "Online_MaxMatch",
            "Offline_Appro",
            "Online_Appro",
        }

    def test_maxmatch_is_top(self, fig3_result):
        by_algo = {r.algorithm: r.collected_bits for r in fig3_result.records}
        top = by_algo["Offline_MaxMatch"]
        for name, bits in by_algo.items():
            assert bits <= top + 1e-6, name

    def test_report(self, fig3_result):
        text = fig3.report(fig3_result)
        assert "Figure 3" in text and "Offline_MaxMatch" in text


class TestFig4:
    def test_panels_per_tau_and_algorithm(self, fig4_result):
        panels = fig4_result.label_values("panel")
        assert len(panels) == 4  # 2 algorithms x 2 taus
        assert any("tau=1" in p for p in panels)
        assert any("tau=4" in p for p in panels)

    def test_report(self, fig4_result):
        text = fig4.report(fig4_result)
        assert "Figure 4" in text and "tau" in text


class TestRegistry:
    def test_contents(self):
        assert set(EXPERIMENTS) == {
            "fig2",
            "fig3",
            "fig4",
            "ablation-gamma",
            "ablation-energy",
        }

    def test_get(self):
        assert get_experiment("fig2") is fig2

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_experiment("fig9")


class TestAblationExperiments:
    def test_gamma_ablation_runs_and_reports(self):
        from repro.experiments import ablation_gamma

        result = ablation_gamma.run(repeats=1, sizes=(40,), divisors=(1, 4), jobs=1)
        text = ablation_gamma.report(result)
        assert "gamma=40 (paper)" in text
        assert "gamma=10" in text
        assert "total_messages" in text
        # Smaller gamma -> more messages (paired topologies).
        msgs = {
            dict(r.label)["panel"]: r.total_messages for r in result.records
        }
        assert msgs["gamma=10 (G*/4)"] > msgs["gamma=40 (paper)"]

    def test_energy_ablation_runs_and_reports(self):
        from repro.experiments import ablation_energy

        result = ablation_energy.run(
            repeats=1, sizes=(40,), windows=((0.0, 0.25), (2.0, 12.0)), jobs=1
        )
        text = ablation_energy.report(result)
        assert "sunny" in text and "cloudy" in text
        # More stored energy -> no less throughput (same topology).
        sunny = {
            dict(r.label)["panel"]: r.collected_bits
            for r in result.records
            if r.algorithm == "Offline_Appro" and "sunny" in dict(r.label)["panel"]
        }
        assert sunny["sunny, U(2,12) h"] >= sunny["sunny, U(0,0.25) h"]

    def test_gamma_override_in_scenario(self):
        from repro.sim.scenario import ScenarioConfig

        scenario = ScenarioConfig(num_sensors=5, gamma_override=7).build(seed=0)
        assert scenario.gamma == 7
        with pytest.raises(ValueError):
            ScenarioConfig(gamma_override=0)


class TestReportFormatting:
    def test_format_series_table_cells(self, fig2_result):
        text = format_series_table(fig2_result)
        assert "n=30" in text
        assert "±" in text

    def test_format_records_limit(self, fig2_result):
        text = format_records(fig2_result, limit=1)
        assert "more records" in text or len(fig2_result.records) <= 1


class TestCli:
    def test_parser_has_all_experiments(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name, "--repeats", "2"])
            assert args.command == name
            assert args.repeats == 2

    def test_compare_subcommand(self, capsys):
        code = main(
            ["compare", "--sensors", "30", "--seed", "3", "--fixed-power", "0.3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Offline_MaxMatch" in out
        assert "LP bound" in out

    def test_compare_hides_maxmatch_without_fixed_power(self, capsys):
        main(["compare", "--sensors", "30", "--seed", "3"])
        out = capsys.readouterr().out
        assert "Offline_Appro" in out
        # No MaxMatch table row, but an explicit note explaining the skip.
        table, _, note = out.partition("note: skipped")
        assert note, "expected a one-line skip note"
        assert "Offline_MaxMatch" not in table
        assert "Offline_MaxMatch" in note
        assert "--fixed-power" in note

    def test_coverage_subcommand(self, capsys):
        code = main(["coverage", "--sensors", "30", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage fraction" in out
        assert "dense-deployment premise" in out

    def test_main_runs_small_fig2(self, capsys):
        code = main(["fig2", "--repeats", "1", "--sizes", "30", "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "records" in out

    def test_failed_claim_exits_1_and_still_writes_records(self, tmp_path, capsys):
        # Seed 9's n = 30 topology: at 30 m/s online collects 2.13 Mb
        # against offline's 3.09 Mb, a 0.69 share under the 0.85 bound.
        path = tmp_path / "records.json"
        argv = ["fig2", "--repeats", "1", "--sizes", "30", "--jobs", "1", "--seed", "9"]
        assert main(argv + ["--output", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  online_ge_0.85_offline" in out
        assert "1 of 4 claims failed: online_ge_0.85_offline" in out
        assert len(SweepResult.from_json(path.read_text()).records) == 6

    def test_main_seed_override(self, capsys):
        # The last line reports wall time ("(N records in X s)"); the
        # report before it must be identical.
        main(["fig2", "--repeats", "1", "--sizes", "30", "--jobs", "1", "--seed", "9"])
        out1 = capsys.readouterr().out.rsplit(" records in ", 1)[0]
        main(["fig2", "--repeats", "1", "--sizes", "30", "--jobs", "1", "--seed", "9"])
        out2 = capsys.readouterr().out.rsplit(" records in ", 1)[0]
        assert "Figure 2" in out1
        assert out1 == out2
