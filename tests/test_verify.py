"""Verification subsystem: certificates, shrinking, fuzzing, corpus.

Covers the failure paths the rest of the suite cannot reach with the
(correct) production solvers: a deliberately broken solver is injected
into the fuzzer and must come out the other end as a shrunk minimal
reproducer persisted to a replayable corpus file.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.offline_appro import offline_appro
from repro.core.offline_maxmatch import offline_maxmatch
from repro.core.serialize import instance_to_json
from repro.obs import MetricsRegistry, use_registry
from repro.planning import PlannerConfig
from repro.sim import ScenarioConfig
from repro.verify import (
    Certificate,
    certify,
    check_instance,
    discover_corpus,
    load_corpus_file,
    render_certificate,
    replay_file,
    run_fuzz,
    save_failure,
    shrink_instance,
)
from repro.verify.corpus import corpus_instance
from repro.verify.fuzz import FuzzFailure, FuzzFinding, default_algorithms
from repro.verify.gen import random_instance
from tests.conftest import make_instance


@pytest.fixture
def inst():
    """Small fixed-power instance: window overlap, tight budgets."""
    return make_instance(
        6,
        1.0,
        [
            {"window": (0, 3), "rates": [10, 20, 30, 40], "powers": [1, 1, 1, 1], "budget": 2.0},
            {"window": (2, 5), "rates": [5, 5, 5, 5], "powers": [1, 1, 1, 1], "budget": 10.0},
        ],
    )


class _OverspendingSolver:
    """A broken solver: grabs every in-window slot, ignoring budgets."""

    name = "Offline_Appro"

    def run(self, instance, gamma):
        owner = np.full(instance.num_slots, -1, dtype=np.int64)
        for j in range(instance.num_slots):
            for s in range(instance.num_sensors):
                window = instance.window_of(s)
                if window is not None and j in window:
                    owner[j] = s
                    break
        return Allocation(owner), None


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------
class TestCertificate:
    def test_feasible_allocation_passes(self, inst):
        cert = certify(inst, offline_appro(inst), algorithm="Offline_Appro")
        assert cert.passed
        assert cert.feasible
        assert cert.verdict == "pass"
        assert cert.failures() == []
        # All four paper constraints are enumerated by name.
        for name in ("horizon", "sensor_ids", "windows", "slot_exclusivity", "budgets"):
            assert cert.check(name).passed

    def test_bound_checks_present_on_small_instance(self, inst):
        cert = certify(inst, offline_appro(inst), algorithm="Offline_Appro")
        # T*n = 12 <= cell limit: LP bound, brute force and the 1/2
        # guarantee are all evaluated.
        assert cert.lp_bound_bits is not None
        assert cert.optimum_bits is not None
        assert cert.guarantee == 0.5
        assert cert.check("lp_upper_bound").passed
        assert cert.check("exact_optimum").passed
        assert cert.check("approximation_guarantee").passed
        assert cert.approximation_ratio >= 0.5
        assert 0.0 < cert.lp_fraction <= 1.0 + 1e-9

    def test_maxmatch_certified_exact(self, inst):
        cert = certify(inst, offline_maxmatch(inst), algorithm="Offline_MaxMatch")
        assert cert.passed
        assert cert.guarantee == 1.0
        assert cert.approximation_ratio == pytest.approx(1.0)

    def test_infeasible_allocation_yields_named_violations(self, inst):
        # Sensor 0: 3 J spent against a 2 J budget, plus slot 5 outside
        # its window A(v_0) = [0, 3].
        alloc = Allocation(np.array([0, 0, 0, -1, -1, 0]))
        cert = certify(inst, alloc, algorithm="Offline_Appro")
        assert not cert.feasible
        assert cert.verdict == "fail"

        budgets = cert.check("budgets")
        assert not budgets.passed
        assert budgets.slack == pytest.approx(-1.0)
        (violation,) = budgets.violations
        assert violation["sensor"] == 0
        assert violation["excess_j"] == pytest.approx(1.0)

        windows = cert.check("windows")
        assert not windows.passed
        (violation,) = windows.violations
        assert violation == {"slot": 5, "sensor": 0, "window": [0, 3]}

        # The objective only counts valid assignments (slot 5 excluded).
        assert cert.objective_bits == pytest.approx(10 + 20 + 30)

    def test_horizon_mismatch_short_circuits(self, inst):
        cert = certify(inst, Allocation.empty(4))
        assert not cert.check("horizon").passed
        assert "not evaluated" in cert.check("budgets").detail

    def test_never_raises_on_garbage(self, inst):
        # Unknown sensor ids become violations, not exceptions.
        cert = certify(inst, Allocation(np.array([7, -1, -1, -1, -1, -1])))
        assert not cert.check("sensor_ids").passed
        assert cert.check("sensor_ids").violations[0]["sensor"] == 7

    def test_json_round_trip(self, inst):
        cert = certify(inst, offline_appro(inst), algorithm="Offline_Appro")
        restored = Certificate.from_json(cert.to_json())
        assert restored == cert
        assert restored.to_dict() == cert.to_dict()

    def test_from_dict_rejects_wrong_envelope(self):
        with pytest.raises(ValueError, match="not a certificate"):
            Certificate.from_dict({"format": "something_else"})
        with pytest.raises(ValueError, match="unsupported certificate version"):
            Certificate.from_dict({"format": "repro.certificate", "version": 99})

    def test_reused_lp_bound_skips_resolve(self, inst):
        cert = certify(inst, offline_appro(inst), lp_bound_bits=1e9)
        assert cert.lp_bound_bits == pytest.approx(1e9)

    def test_lp_bound_is_priced_outside_verify_certify(self):
        """Three certified solves of one deployment: one LP solve, and no
        ``lp.dcmp_bound`` span inside a ``verify.certify`` span, so the
        two timers add up without double counting."""
        from repro.obs import Tracer, use_tracer
        from repro.sim import ScenarioConfig, TourSpec, run_tours

        config = ScenarioConfig(num_sensors=30, path_length=1500.0)
        specs = [
            TourSpec(config, name, seed=3, certify=True)
            for name in ("Offline_Appro", "Online_Appro", "Baseline[greedy_profit]")
        ]
        tracer = Tracer()
        with use_registry(MetricsRegistry()), use_tracer(tracer):
            results = run_tours(specs)
        certifies = [e for e in tracer.events if e.name == "verify.certify"]
        (bound,) = [e for e in tracer.events if e.name == "lp.dcmp_bound"]
        assert len(certifies) == 3
        for span in certifies:
            inside = (
                span.start_s <= bound.start_s
                and bound.start_s + bound.duration_s <= span.start_s + span.duration_s
            )
            assert not inside, (span, bound)
        assert all(r.certificate.verdict == "pass" for r in results)

    def test_certified_tour_audits_its_allocation_once(self, monkeypatch):
        """The certificate reads the audit of ``run_tour``'s
        ``tour.verify`` phase instead of auditing again."""
        from repro.sim import get_algorithm, run_tour

        audits = []
        audit = Allocation.audit

        def counted(allocation, instance):
            audits.append(instance)
            return audit(allocation, instance)

        monkeypatch.setattr(Allocation, "audit", counted)
        scenario = ScenarioConfig(num_sensors=30, path_length=1500.0).build(seed=3)
        result = run_tour(scenario, get_algorithm("Offline_Appro"), mutate=False, certify=True)
        assert len(audits) == 1
        assert result.certificate.verdict == "pass"
        assert result.certificate.objective_bits == result.collected_bits
        monkeypatch.undo()
        plain = certify(scenario.instance(), result.allocation, algorithm="Offline_Appro")
        assert plain.to_dict() == result.certificate.to_dict()

    def test_render_mentions_verdict_and_checks(self, inst):
        cert = certify(inst, offline_appro(inst), algorithm="Offline_Appro")
        text = render_certificate(cert)
        assert "certificate: PASS" in text
        assert "budgets" in text and "lp_upper_bound" in text


class TestEmptyNetwork:
    """n = 0: no budget to check, so the certificate passes with no
    ``budgets`` slack instead of raising."""

    def test_certificate_passes_without_budget_slack(self):
        inst = make_instance(4, 1.0, [])
        cert = certify(inst, Allocation.empty(4), algorithm="Offline_Appro")
        assert cert.verdict == "pass"
        budgets = cert.check("budgets")
        assert budgets.slack is None
        assert budgets.detail == (
            "no sensors, so no budget to exceed (constraint (4) holds vacuously)"
        )
        assert "budgets" in render_certificate(cert)

    def test_sensor_ids_detail_names_no_id(self):
        inst = make_instance(4, 1.0, [])
        ids = certify(inst, Allocation.empty(4), algorithm="Offline_Appro").check("sensor_ids")
        assert ids.passed
        assert ids.detail == "no sensors, so no sensor id is valid; no slot is assigned"
        assert "[0, -1]" not in ids.detail

    def test_unknown_sensor_fails_as_data(self):
        inst = make_instance(4, 1.0, [])
        cert = certify(inst, Allocation(np.array([0, -1, 1, -1])))
        assert cert.verdict == "fail"
        assert cert.check("sensor_ids").violations == (
            {"slot": 0, "sensor": 0, "num_sensors": 0},
            {"slot": 2, "sensor": 1, "num_sensors": 0},
        )
        assert cert.check("budgets").passed

    def test_verify_cli_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["verify", "--sensors", "0", "--json"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["num_sensors"] == 0
        assert cert["verdict"] == "pass"

    def test_fuzz_checks_empty_networks_clean(self):
        for index in range(3):
            rng = np.random.default_rng([5, index])
            instance = random_instance(
                rng, num_slots=8, num_sensors=0, fixed_power=0.3 if index else None
            )
            assert check_instance(instance, 2) == []


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
class TestShrink:
    def test_converges_to_minimal_reproducer(self):
        """A synthetic failure ('some sensor has budget > 5') must shrink
        to a single-sensor, single-slot instance."""
        rng = np.random.default_rng(7)
        inst = random_instance(rng, num_slots=10, num_sensors=5, budget_scale=50.0)
        assert np.any(inst.budgets_array() > 5)

        def predicate(candidate):
            return bool(np.any(candidate.budgets_array() > 5))

        shrunk = shrink_instance(inst, predicate)
        assert predicate(shrunk)
        assert shrunk.num_sensors == 1
        assert shrunk.num_slots == 1

    def test_false_initial_predicate_keeps_input(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng)
        assert shrink_instance(inst, lambda c: False) is inst

    def test_raising_predicate_rejects_candidate(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, num_slots=8, num_sensors=3)

        def fragile(candidate):
            if candidate.num_sensors < 2:
                raise RuntimeError("boom")
            return True

        shrunk = shrink_instance(inst, fragile)
        assert shrunk.num_sensors == 2  # never dropped below the crash line


# ----------------------------------------------------------------------
# Fuzzing
# ----------------------------------------------------------------------
class TestFuzz:
    def test_clean_on_production_solvers(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            report = run_fuzz(runs=8, seed=0)
        assert report.ok
        assert report.checked_runs == 8
        assert report.algorithm_runs > 0
        assert "0 failure(s)" in report.summary()
        # Each draw is checked with its four metamorphic transforms: five
        # distinct instances, one LP solve apiece, however many
        # algorithms certify against the bound.  A draw with no
        # transmittable pair (an empty network, say) has the bound 0
        # without a solve.
        from repro.core.lp import slot_run_model
        from repro.verify.fuzz import _draw_instance

        draws = [_draw_instance(np.random.default_rng([0, i]), i, 12, 5) for i in range(8)]
        priced = sum(slot_run_model(draw).profits.size > 0 for draw in draws)
        assert priced < 8 and min(draw.num_sensors for draw in draws) == 0
        assert registry.counter("lp.calls") == 5 * priced

    def test_metamorphic_pass_reuses_the_base_solves(self):
        """Each metamorphic solver runs once on the base instance and once
        per relation: the metamorphic pass reads the allocations
        ``check_instance`` already certified instead of solving again."""
        from repro.sim.algorithms import get_algorithm
        from repro.verify.fuzz import _METAMORPHIC_ALGORITHMS, _RELATIONS

        class Counting:
            def __init__(self, name):
                self.algorithm = get_algorithm(name)
                self.calls = 0

            def run(self, instance, gamma):
                self.calls += 1
                return self.algorithm.run(instance, gamma)

        for index in range(4):
            rng = np.random.default_rng([1, index])
            instance = random_instance(rng, num_slots=10, num_sensors=4, fixed_power=0.3)
            solvers = {name: Counting(name) for name in _METAMORPHIC_ALGORITHMS}
            assert check_instance(instance, 2, algorithms=solvers) == []
            for name, solver in solvers.items():
                assert solver.calls == 1 + len(_RELATIONS) == 5, name

    def test_replayable_seeds(self):
        first = run_fuzz(runs=4, seed=123)
        second = run_fuzz(runs=4, seed=123)
        assert first.ok == second.ok
        assert first.algorithm_runs == second.algorithm_runs

    def test_check_instance_flags_overspender(self, inst):
        findings = check_instance(
            inst, gamma=2, algorithms={"Offline_Appro": _OverspendingSolver()}
        )
        assert any(
            f.kind == "certificate" and f.check == "budgets" for f in findings
        )

    def test_crash_becomes_finding(self, inst):
        class Exploding:
            def run(self, instance, gamma):
                raise RuntimeError("kaboom")

        findings = check_instance(inst, gamma=2, algorithms={"Bad": Exploding()})
        (finding,) = [f for f in findings if f.kind == "crash"]
        assert finding.algorithm == "Bad"
        assert "kaboom" in finding.detail

    def test_default_algorithms_respects_fixed_power(self):
        rng = np.random.default_rng(3)
        multi = random_instance(rng, num_sensors=3)
        fixed = random_instance(rng, num_sensors=3, fixed_power=0.3)
        assert "Offline_MaxMatch" not in default_algorithms(multi)
        assert "Offline_MaxMatch" in default_algorithms(fixed)

    def test_broken_solver_end_to_end(self, tmp_path):
        """The acceptance path: broken solver -> finding -> shrunk
        minimal reproducer -> corpus JSON -> replay reproduces."""
        corpus = tmp_path / "corpus"
        report = run_fuzz(
            runs=12,
            seed=0,
            algorithms={"Offline_Appro": _OverspendingSolver()},
            corpus_dir=corpus,
            max_failures=2,
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.shrunk
        n0, t0 = failure.original_shape
        n1, t1 = failure.shape
        assert (n1, t1) <= (n0, t0)
        assert n1 <= 2  # the overspend bug needs very few sensors

        # The corpus file replays: broken solver still trips, the real
        # solver set is clean (i.e. the file is a fixed regression).
        assert report.corpus_paths
        path = report.corpus_paths[0]
        surviving = replay_file(path, algorithms={"Offline_Appro": _OverspendingSolver()})
        assert any(f.key() == failure.finding.key() for f in surviving)
        assert replay_file(path) == []

    def test_shrunk_reproducers_are_pinned(self):
        """The shrinker's passes pick the same candidates in the same
        order: each shrunk reproducer's JSON text is pinned by hash."""
        got = []
        for seed in (0, 1, 2):
            report = run_fuzz(
                runs=12,
                seed=seed,
                algorithms={"Offline_Appro": _OverspendingSolver()},
                max_failures=2,
            )
            for failure in report.failures:
                text = instance_to_json(failure.instance)
                digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                got.append((failure.original_shape, failure.shape, digest))
        assert got == [
            ((3, 11), (1, 5), "0b3bd4418e68ac22"),
            ((5, 9), (1, 1), "0b42a345af0ddfd4"),
            ((3, 9), (1, 1), "b556cea0a598d0c7"),
            ((1, 9), (1, 2), "6a8fd3c68a0e97f2"),
            ((1, 11), (1, 3), "ab96ea7a8c614f7b"),
            ((5, 8), (1, 4), "0a9dd84a1b145b4f"),
        ]


def _planned(kind):
    # The bench's quick planner shape, at n = 100 and one power.
    return ScenarioConfig(
        num_sensors=100,
        path_length=1500.0,
        max_offset=300.0,
        sink_speed=10.0,
        fixed_power=0.3,
        planner=PlannerConfig(kind=kind),
    )


def _road(num_sensors, fixed_power=None):
    return ScenarioConfig(
        num_sensors=num_sensors, path_length=10_000.0, fixed_power=fixed_power
    )


class TestScenarioRelations:
    """The metamorphic relations and every applicable algorithm's
    certificate hold on scenario-built instances, far beyond the
    fuzzer's n <= 5."""

    @pytest.mark.parametrize(
        "config,seed",
        [
            (_road(100), 1),
            (_road(100, fixed_power=0.3), 1),
            (_road(300, fixed_power=0.3), 1),
            (_planned("plane_sweep"), 7),
            (_planned("multi_sink"), 7),
        ],
        ids=["road-n100", "road-n100-0.3W", "road-n300-0.3W", "plane-sweep", "multi-sink"],
    )
    def test_check_instance_is_clean(self, config, seed):
        scenario = config.build(seed=seed)
        assert check_instance(scenario.instance(), scenario.gamma) == []


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
class TestCorpus:
    def _failure(self, inst):
        return FuzzFailure(
            finding=FuzzFinding("certificate", "Offline_Appro", "budgets", "over"),
            instance=inst,
            gamma=3,
            seed=42,
            run_index=5,
            original_shape=(4, 9),
            shrunk=True,
        )

    def test_save_is_canonical_and_idempotent(self, inst, tmp_path):
        failure = self._failure(inst)
        path1 = save_failure(failure, tmp_path)
        blob1 = path1.read_text()
        path2 = save_failure(failure, tmp_path)
        assert path1 == path2
        assert path2.read_text() == blob1
        assert blob1.endswith("\n")
        assert path1.name.startswith("offline-appro-budgets-")
        # Canonical form: re-serialising the parsed doc is a no-op.
        doc = json.loads(blob1)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == blob1

    def test_round_trip_preserves_instance_and_provenance(self, inst, tmp_path):
        path = save_failure(self._failure(inst), tmp_path)
        doc = load_corpus_file(path)
        assert doc["kind"] == "certificate"
        assert doc["gamma"] == 3
        assert doc["seed"] == 42
        assert doc["original_shape"] == [4, 9]
        restored = corpus_instance(doc)
        assert restored.num_sensors == inst.num_sensors
        assert restored.num_slots == inst.num_slots
        for a, b in zip(restored.window_bounds(), inst.window_bounds()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(restored.flat_pairs().rates, inst.flat_pairs().rates)
        np.testing.assert_allclose(restored.flat_pairs().powers, inst.flat_pairs().powers)
        np.testing.assert_allclose(restored.budgets_array(), inst.budgets_array())

    def test_envelope_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "nope"}')
        with pytest.raises(ValueError, match="not a fuzz-failure"):
            load_corpus_file(bad)
        stale = tmp_path / "stale.json"
        stale.write_text('{"format": "repro.fuzz_failure", "version": 99}')
        with pytest.raises(ValueError, match="unsupported corpus version"):
            load_corpus_file(stale)

    def test_discover_is_sorted_and_tolerates_missing_dir(self, tmp_path):
        assert discover_corpus(tmp_path / "absent") == []
        (tmp_path / "b.json").write_text("{}")
        (tmp_path / "a.json").write_text("{}")
        names = [p.name for p in discover_corpus(tmp_path)]
        assert names == ["a.json", "b.json"]


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
class TestGen:
    def test_deterministic_under_seed(self):
        a = random_instance(np.random.default_rng(99), num_slots=9, num_sensors=4)
        b = random_instance(np.random.default_rng(99), num_slots=9, num_sensors=4)
        for da, db in zip(a.window_bounds(), b.window_bounds()):
            np.testing.assert_array_equal(da, db)
        for da, db in zip(a.flat_pairs(), b.flat_pairs()):
            np.testing.assert_array_equal(da, db)
        np.testing.assert_array_equal(a.budgets_array(), b.budgets_array())

    def test_fixed_power_instances_use_one_power(self):
        inst = random_instance(np.random.default_rng(5), fixed_power=0.3)
        assert inst.flat_pairs().powers.size
        assert np.allclose(inst.flat_pairs().powers, 0.3)
