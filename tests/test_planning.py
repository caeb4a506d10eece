"""Unit tests for the sink-path design subsystem (repro.planning)."""

import json

import numpy as np
import pytest

from repro.network.geometry import PiecewiseLinearPath
from repro.planning import (
    PLANNER_KINDS,
    PlannerConfig,
    PlanningError,
    deterministic_kmeans,
    get_planner,
    plan_document,
    plan_scenario,
    render_field_map,
)
from repro.planning.base import polyline_length
from repro.utils.validation import UnknownFieldError

R = 200.0  # the paper's transmission range


def _positions(n=40, width=1200.0, half_height=300.0, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, width, size=n)
    y = rng.uniform(-half_height, half_height, size=n)
    return np.column_stack([x, y])


def _min_distance_to_path(path, positions, samples=20001):
    arcs = np.linspace(0.0, path.length, samples)
    pts = path.point_at(arcs)
    d = np.hypot(
        positions[:, None, 0] - pts[None, :, 0],
        positions[:, None, 1] - pts[None, :, 1],
    )
    return d.min(axis=1)


class TestPlannerConfig:
    def test_defaults_valid(self):
        config = PlannerConfig()
        assert config.kind == "fixed_line"
        assert config.deployment == "uniform"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "spiral"),
            ("deployment", "grid"),
            ("num_clusters", 0),
            ("cluster_std", -1.0),
            ("tour_length_budget", 0.0),
            ("sweep_spacing", -5.0),
            ("num_sinks", 0),
            ("max_sinks", 1),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        kwargs = {field: value}
        if field == "max_sinks":
            kwargs["num_sinks"] = 2
        with pytest.raises(ValueError):
            PlannerConfig(**kwargs)

    def test_round_trip(self):
        config = PlannerConfig(
            kind="multi_sink",
            deployment="clustered",
            tour_length_budget=2500.0,
            num_sinks=3,
        )
        doc = json.loads(json.dumps(config.to_dict()))
        assert PlannerConfig.from_dict(doc) == config

    def test_from_dict_rejects_unknown_field_typed(self):
        with pytest.raises(UnknownFieldError) as excinfo:
            PlannerConfig.from_dict({"kind": "plane_sweep", "pacing": 3})
        assert excinfo.value.fields == ("pacing",)
        assert "pacing" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)

    def test_from_dict_type_checks(self):
        with pytest.raises(ValueError, match="num_sinks"):
            PlannerConfig.from_dict({"num_sinks": 2.5})
        with pytest.raises(ValueError, match="kind"):
            PlannerConfig.from_dict({"kind": 7})

    def test_hashable(self):
        assert hash(PlannerConfig()) == hash(PlannerConfig())

    def test_every_kind_registered(self):
        for kind in PLANNER_KINDS:
            assert callable(get_planner(kind))
        with pytest.raises(PlanningError):
            get_planner("warp_drive")


class TestPlaneSweep:
    def test_covers_every_sensor(self):
        pos = _positions()
        plan = plan_scenario(PlannerConfig(kind="plane_sweep"), pos, 1200.0, 300.0, R)
        assert plan.kind == "plane_sweep"
        assert plan.num_sinks == 1
        assert np.all(_min_distance_to_path(plan.path, pos) <= R)

    def test_spacing_never_exceeds_coverage_limit(self):
        plan = plan_scenario(
            PlannerConfig(kind="plane_sweep"), _positions(), 1200.0, 300.0, R
        )
        assert plan.meta["line_spacing_m"] <= 2 * R

    def test_budget_thins_lines(self):
        free = plan_scenario(
            PlannerConfig(kind="plane_sweep"), _positions(), 2000.0, 300.0, R
        )
        tight = plan_scenario(
            PlannerConfig(kind="plane_sweep", tour_length_budget=free.total_tour_length - 1.0),
            _positions(),
            2000.0,
            300.0,
            R,
        )
        assert tight.meta["num_lines"] < free.meta["num_lines"]
        assert tight.total_tour_length <= free.total_tour_length - 1.0
        # Thinned, but still coverage complete.
        assert tight.meta["line_spacing_m"] <= 2 * R

    def test_infeasible_budget_raises(self):
        with pytest.raises(PlanningError, match="tour_length_budget"):
            plan_scenario(
                PlannerConfig(kind="plane_sweep", tour_length_budget=100.0),
                _positions(),
                5000.0,
                300.0,
                R,
            )

    def test_too_wide_spacing_raises(self):
        with pytest.raises(PlanningError, match="2R"):
            plan_scenario(
                PlannerConfig(kind="plane_sweep", sweep_spacing=500.0),
                _positions(),
                1200.0,
                300.0,
                R,
            )

    def test_deterministic(self):
        pos = _positions()
        a = plan_scenario(PlannerConfig(kind="plane_sweep"), pos, 1200.0, 300.0, R)
        b = plan_scenario(PlannerConfig(kind="plane_sweep"), pos, 1200.0, 300.0, R)
        np.testing.assert_array_equal(a.tours[0], b.tours[0])

    def test_zero_height_field(self):
        pos = np.column_stack([np.linspace(0, 900.0, 10), np.zeros(10)])
        plan = plan_scenario(PlannerConfig(kind="plane_sweep"), pos, 900.0, 0.0, R)
        assert plan.path.length > 0
        assert np.all(_min_distance_to_path(plan.path, pos) <= R)


class TestMultiSink:
    def test_partitions_and_covers(self):
        pos = _positions(60, 1500.0, 250.0)
        plan = plan_scenario(
            PlannerConfig(kind="multi_sink", num_sinks=3), pos, 1500.0, 250.0, R
        )
        assert plan.num_sinks == 3
        assert plan.assignment.shape == (60,)
        assert set(np.unique(plan.assignment)) <= set(range(plan.num_sinks))
        assert np.all(_min_distance_to_path(plan.path, pos) <= R)

    def test_each_sensor_covered_by_own_sink_tour(self):
        pos = _positions(60, 1500.0, 250.0)
        plan = plan_scenario(
            PlannerConfig(kind="multi_sink", num_sinks=3), pos, 1500.0, 250.0, R
        )
        for sink, tour in enumerate(plan.tours):
            members = pos[plan.assignment == sink]
            if len(members) == 0 or len(tour) < 2:
                continue
            d = _min_distance_to_path(PiecewiseLinearPath(tour), members)
            assert np.all(d <= R)

    def test_budget_respected_per_tour(self):
        plan = plan_scenario(
            PlannerConfig(kind="multi_sink", num_sinks=2, tour_length_budget=1500.0),
            _positions(60, 1500.0, 250.0),
            1500.0,
            250.0,
            R,
        )
        assert all(length <= 1500.0 for length in plan.tour_lengths)

    def test_tight_budget_splits_clusters(self):
        pos = _positions(80, 3000.0, 300.0)
        free = plan_scenario(
            PlannerConfig(kind="multi_sink", num_sinks=2), pos, 3000.0, 300.0, R
        )
        assert max(free.tour_lengths) > 800.0  # budget below forces splits
        tight = plan_scenario(
            PlannerConfig(kind="multi_sink", num_sinks=2, tour_length_budget=800.0),
            pos,
            3000.0,
            300.0,
            R,
        )
        assert tight.num_sinks > 2
        assert tight.meta["splits"] > 0
        assert all(length <= 800.0 for length in tight.tour_lengths)

    def test_impossible_budget_raises(self):
        with pytest.raises(PlanningError, match="max_sinks"):
            plan_scenario(
                PlannerConfig(
                    kind="multi_sink", num_sinks=2, max_sinks=2, tour_length_budget=200.0
                ),
                _positions(80, 5000.0, 300.0),
                5000.0,
                300.0,
                R,
            )

    def test_single_sensor_degenerates_to_parked_sink(self):
        pos = np.array([[400.0, 50.0]])
        plan = plan_scenario(
            PlannerConfig(kind="multi_sink", num_sinks=2), pos, 1000.0, 100.0, R
        )
        assert plan.num_sinks == 1
        assert plan.path.length > 0  # drivable fallback segment
        assert np.all(_min_distance_to_path(plan.path, pos) <= R)

    def test_no_sensors_raises(self):
        with pytest.raises(PlanningError):
            plan_scenario(
                PlannerConfig(kind="multi_sink"), np.zeros((0, 2)), 1000.0, 100.0, R
            )

    def test_deterministic(self):
        pos = _positions(60, 1500.0, 250.0)
        config = PlannerConfig(kind="multi_sink", num_sinks=3)
        a = plan_scenario(config, pos, 1500.0, 250.0, R)
        b = plan_scenario(config, pos, 1500.0, 250.0, R)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        for ta, tb in zip(a.tours, b.tours):
            np.testing.assert_array_equal(ta, tb)


class TestKMeans:
    def test_every_point_assigned(self):
        pos = _positions(50)
        assign = deterministic_kmeans(pos, 4)
        assert assign.shape == (50,)
        assert assign.min() >= 0 and assign.max() < 4

    def test_k_capped_at_n(self):
        pos = _positions(3)
        assign = deterministic_kmeans(pos, 10)
        assert assign.max() < 3

    def test_deterministic(self):
        pos = _positions(50)
        np.testing.assert_array_equal(
            deterministic_kmeans(pos, 4), deterministic_kmeans(pos, 4)
        )

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(0)
        blobs = np.vstack(
            [rng.normal((cx, 0.0), 10.0, size=(20, 2)) for cx in (0.0, 1000.0, 2000.0)]
        )
        assign = deterministic_kmeans(blobs, 3)
        for i in range(3):
            chunk = assign[i * 20 : (i + 1) * 20]
            assert len(np.unique(chunk)) == 1  # each blob in one cluster

    def test_empty_input(self):
        assert deterministic_kmeans(np.zeros((0, 2)), 3).shape == (0,)


class TestFixedLine:
    def test_matches_paper_path(self):
        pos = _positions()
        plan = plan_scenario(PlannerConfig(kind="fixed_line"), pos, 1200.0, 300.0, R)
        np.testing.assert_array_equal(plan.path.waypoints, [[0.0, 0.0], [1200.0, 0.0]])
        assert plan.path.length == 1200.0
        assert plan.tour_lengths == (1200.0,)


class TestSinkPlanDocument:
    def test_to_dict_json_serialisable(self):
        plan = plan_scenario(
            PlannerConfig(kind="multi_sink", num_sinks=2),
            _positions(30),
            1200.0,
            300.0,
            R,
        )
        doc = json.loads(json.dumps(plan.to_dict()))
        assert doc["kind"] == "multi_sink"
        assert doc["num_sinks"] == len(doc["tours"]) == len(doc["tour_lengths_m"])
        assert len(doc["assignment"]) == 30

    def test_total_tour_length(self):
        plan = plan_scenario(
            PlannerConfig(kind="plane_sweep"), _positions(), 1200.0, 300.0, R
        )
        assert plan.total_tour_length == pytest.approx(
            polyline_length(plan.tours[0])
        )

    def test_plan_document_shape(self):
        pos = _positions(10)
        plan = plan_scenario(PlannerConfig(kind="plane_sweep"), pos, 1200.0, 300.0, R)
        doc = plan_document(plan, pos, {"num_sensors": 10}, seed=3)
        assert doc["format"] == "repro.plan"
        assert doc["seed"] == 3
        assert len(doc["sensors"]) == 10
        json.dumps(doc)  # JSON-clean


class TestRenderFieldMap:
    def test_map_contains_path_and_sensors(self):
        pos = _positions(20)
        plan = plan_scenario(PlannerConfig(kind="plane_sweep"), pos, 1200.0, 300.0, R)
        text = render_field_map(plan, pos, 1200.0, 300.0)
        assert "#" in text  # the path
        assert "0" in text  # sensors marked with their sink index
        assert text.splitlines()[0].startswith("+")

    def test_map_deterministic(self):
        pos = _positions(20)
        plan = plan_scenario(PlannerConfig(kind="plane_sweep"), pos, 1200.0, 300.0, R)
        assert render_field_map(plan, pos, 1200.0, 300.0) == render_field_map(
            plan, pos, 1200.0, 300.0
        )

    def test_narrow_map_rejected(self):
        pos = _positions(5)
        plan = plan_scenario(PlannerConfig(kind="plane_sweep"), pos, 1200.0, 300.0, R)
        with pytest.raises(ValueError):
            render_field_map(plan, pos, 1200.0, 300.0, cols=4)
