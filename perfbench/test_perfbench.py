"""Self-tests for the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import metrics  # noqa: E402
import service  # noqa: E402
import stats  # noqa: E402
from spans import SpanRecorder  # noqa: E402

ROOT = HERE.parent
DEFINITION = metrics.load(ROOT)


def test_tail_leaves_exactly_ten_samples_beyond():
    value, pct, count = stats.tail([float(v) for v in range(1, 101)])
    assert (value, pct, count) == (90.0, 90.0, 100)
    value, pct, count = stats.tail(list(range(11, 0, -1)))
    assert value == 1 and count == 11 and pct == pytest.approx(100 / 11)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_median_and_percentile():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert stats.percentile(range(1, 101), 99) == 99
    assert stats.percentile([5.0], 50) == 5.0


def test_digest_is_order_sensitive_and_exact():
    assert stats.digest([1.0, 2.0]) == stats.digest([1.0, 2.0])
    assert stats.digest([1.0, 2.0]) != stats.digest([2.0, 1.0])
    assert stats.digest([1.0]) != stats.digest([1.0 + 2**-52])


def test_service_schedule_is_identical_for_a_seed():
    def schedule(seed):
        stream = inputs.ServiceInputs(seed, hot_set=4)
        return stream.hot_bodies, stream.schedule("nominal", 200, 6.0, 0.5)

    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)


def test_service_schedule_mix():
    stream = inputs.ServiceInputs(3, hot_set=4)
    requests = stream.schedule("nominal", 2000, 6.0, 0.5)
    fresh = [r for r in requests if r.kind == "fresh"]
    cached = [r for r in requests if r.kind == "cached"]
    fresh_seeds = [r.doc["seed"] for r in fresh]
    hot_seeds = {json.loads(b)["seed"] for b in stream.hot_bodies}
    assert len(set(fresh_seeds)) == len(fresh_seeds)
    assert not hot_seeds & set(fresh_seeds)
    assert {r.body for r in cached} <= set(stream.hot_bodies)
    assert 0.45 < len(fresh) / len(requests) < 0.55
    assert 0.07 < sum(bool(r.doc.get("certify")) for r in fresh) / len(fresh) < 0.13
    mean_gap = requests[-1].due / len(requests)
    assert mean_gap == pytest.approx(1 / 6.0, rel=0.1)
    assert all(a.due <= b.due for a, b in zip(requests, requests[1:]))


def test_tour_inputs_are_identical_for_a_seed():
    assert inputs.appro_sweep(5, 12) == inputs.appro_sweep(5, 12)
    assert inputs.appro_sweep(5, 12) != inputs.appro_sweep(6, 12)
    sizes = [t.config["num_sensors"] for t in inputs.appro_sweep(5, 12)]
    assert sorted(set(sizes)) == list(inputs.APPRO_SIZES) and sizes[:3] * 4 == sizes
    shapes = {(t.config["num_sensors"], t.config["path_length"]) for t in inputs.maxmatch_sweep(5, 6)}
    assert shapes == set(inputs.MAXMATCH_SHAPES)
    networks = inputs.perpetual(5, 2)
    assert [t.algorithms for t in networks].count(("Offline_Appro",)) == 2


def test_self_time_subtracts_children():
    recorder = SpanRecorder()
    recorder.spans = [("bench.op", 0.0, 5.0, None, ""), ("sim.run_tour", 1.0, 4.0, 0, "")]
    recorder.add_phases(1, [("core.instance.build", 0.5), ("core.offline_appro.solve", 2.0)])
    assert recorder.spans[-1][1:3] == (1.5, 3.5)
    totals = recorder.self_times()
    assert totals == pytest.approx(
        {"bench.op": 2.0, "sim.run_tour": 0.5, "core.instance.build": 0.5,
         "core.offline_appro.solve": 2.0}
    )
    assert sum(totals.values()) == pytest.approx(5.0)


def test_layer_sum_leaves_out_the_benchmark_span():
    recorder = SpanRecorder()
    recorder.spans = [("bench.op", 0.0, 5.0, None, ""), ("sim.run_tour", 1.0, 4.0, 0, "")]
    recorder.add_phases(1, [("core.offline_appro.solve", 2.0)])
    assert metrics.layer_sum(recorder.self_times()) == pytest.approx(3.0)


def test_spans_nest_and_unwind():
    recorder = SpanRecorder()
    root = recorder.open("bench.op")
    inner = recorder.open("sim.scenario.build")
    with pytest.raises(RuntimeError):
        recorder.close(root)
    recorder.unwind(root)
    assert all(end >= start for _, start, end, _, _ in recorder.spans)
    assert recorder.spans[inner][3] == root


def test_generator_lag_counts_only_free_connection_sends():
    def outcome(due, sent, waited):
        return service.Outcome(None, due, sent, sent + 0.1, 200, b"", None, waited)

    outcomes = [outcome(0.0, 0.001, True)] * 99 + [outcome(0.0, 5.0, False)]
    assert service.generator_lag_ms(outcomes) == pytest.approx(1.0)


def test_layer_metrics_cover_the_definition():
    names = {m["name"] for m in DEFINITION["per_layer"]}
    produced = set(metrics.layer_metrics({}, {}, 1))
    set_by_workloads = {
        "sim.scenario.builds",
        "core.instance.pairs",
        "trace.overhead_share",
        "trace.layer_sum_share",
    }
    assert produced | set_by_workloads == names


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "appro-sweep",
         "--seed", "3", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    key = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in DEFINITION[key]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.strip().startswith(f"{name} = ") and line.endswith(unit) for line in lines)
