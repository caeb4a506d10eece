"""The instrumentation layer: registry, tracing, logging, reports."""

import io
import json
import logging

import pytest

from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Tracer,
    configure_logging,
    disable_metrics,
    enable_metrics,
    events_from_jsonl,
    get_logger,
    get_registry,
    get_tracer,
    phase,
    profile_report,
    set_registry,
    set_tracer,
    use_registry,
    use_tracer,
    verbosity_to_level,
)
from repro.obs.registry import _percentile


# ----------------------------------------------------------------------
# MetricsRegistry semantics
# ----------------------------------------------------------------------
def test_counter_accumulates():
    reg = MetricsRegistry()
    assert reg.counter("x") == 0.0
    reg.inc("x")
    reg.inc("x", 2.5)
    assert reg.counter("x") == pytest.approx(3.5)


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    assert reg.gauge("g") is None
    reg.set_gauge("g", 1.0)
    reg.set_gauge("g", 7.0)
    assert reg.gauge("g") == 7.0


def test_timer_stats_known_data():
    reg = MetricsRegistry()
    for v in [0.5, 0.1, 0.3, 0.2, 0.4]:
        reg.observe("t", v)
    stats = reg.timer_stats("t")
    assert stats.count == 5
    assert stats.total == pytest.approx(1.5)
    assert stats.min == pytest.approx(0.1)
    assert stats.max == pytest.approx(0.5)
    assert stats.mean == pytest.approx(0.3)
    # Nearest-rank over [0.1..0.5]: p50 -> 3rd value, p95/p99 -> 5th value.
    assert stats.p50 == pytest.approx(0.3)
    assert stats.p95 == pytest.approx(0.5)
    assert stats.p99 == pytest.approx(0.5)


def test_timer_stats_unobserved_is_zeros():
    stats = MetricsRegistry().timer_stats("never")
    assert stats.count == 0
    assert stats.total == stats.min == stats.max == 0.0
    assert stats.as_dict()["p95_s"] == 0.0
    assert stats.as_dict()["p99_s"] == 0.0


def test_timer_stats_p99_needs_a_long_tail():
    reg = MetricsRegistry()
    for _ in range(49):
        reg.observe("t", 0.01)
    reg.observe("t", 1.0)
    stats = reg.timer_stats("t")
    # Nearest rank over 50 samples: p95 -> 48th (0.01), p99 -> 50th (1.0).
    assert stats.p95 == pytest.approx(0.01)
    assert stats.p99 == pytest.approx(1.0)


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert _percentile(values, 0.0) == 1.0
    assert _percentile(values, 0.5) == 2.0
    assert _percentile(values, 0.75) == 3.0
    assert _percentile(values, 1.0) == 4.0
    assert _percentile([], 0.5) == 0.0


def test_percentile_empty_guard_any_quantile():
    for q in (0.0, 0.5, 0.99, 1.0):
        assert _percentile([], q) == 0.0


def test_percentile_single_sample_is_every_quantile():
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert _percentile([7.0], q) == 7.0


def test_percentile_two_samples():
    values = [1.0, 2.0]
    # ceil(q*2)-1: q<=0.5 -> first sample, q>0.5 -> second.
    assert _percentile(values, 0.0) == 1.0
    assert _percentile(values, 0.5) == 1.0
    assert _percentile(values, 0.51) == 2.0
    assert _percentile(values, 0.95) == 2.0
    assert _percentile(values, 1.0) == 2.0


def test_snapshot_shape_and_reset():
    reg = MetricsRegistry()
    reg.inc("c", 2)
    reg.set_gauge("g", 1.5)
    reg.observe("t", 0.25)
    snap = reg.snapshot()
    assert snap["counters"] == {"c": 2.0}
    assert snap["gauges"] == {"g": 1.5}
    assert snap["timers"]["t"]["count"] == 1
    assert snap["timers"]["t"]["total_s"] == pytest.approx(0.25)
    json.dumps(snap)  # must be JSON-serialisable as-is
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}


def test_pinned_timed_context_manager():
    reg = MetricsRegistry()
    with phase("block", registry=reg):
        pass
    stats = reg.timer_stats("block")
    assert stats.count == 1
    assert stats.total >= 0.0
    assert get_registry().timer_stats("block").count == 0


def test_timed_records_on_exception():
    reg = MetricsRegistry()
    tracer = Tracer()
    profile = {}
    with use_tracer(tracer), pytest.raises(RuntimeError):
        with phase("x.boom", profile, registry=reg):
            raise RuntimeError("x")
    assert reg.timer_stats("x.boom").count == 1
    assert [e.name for e in tracer.events] == ["x.boom"]
    assert tracer._depth == 0
    assert profile["boom_s"] == tracer.events[0].duration_s
    assert profile["boom_s"] == reg.timer_stats("x.boom").total


# ----------------------------------------------------------------------
# Global registry dispatch
# ----------------------------------------------------------------------
def test_default_registry_is_null():
    assert isinstance(get_registry(), NullRegistry)
    assert not get_registry().enabled


def test_null_registry_records_nothing():
    reg = NullRegistry()
    reg.inc("c")
    reg.set_gauge("g", 1.0)
    reg.observe("t", 0.5)
    with phase("t2", registry=reg):
        pass
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}


def test_use_registry_scopes_and_restores():
    outer = get_registry()
    reg = MetricsRegistry()
    with use_registry(reg) as scoped:
        assert scoped is reg
        assert get_registry() is reg
        with phase("inner"):
            pass
    assert get_registry() is outer
    assert reg.timer_stats("inner").count == 1


def test_use_registry_restores_on_exception():
    outer = get_registry()
    with pytest.raises(ValueError):
        with use_registry(MetricsRegistry()):
            raise ValueError("x")
    assert get_registry() is outer


def test_use_registry_nesting():
    a, b = MetricsRegistry(), MetricsRegistry()
    with use_registry(a):
        with use_registry(b):
            with phase("t"):
                pass
        assert get_registry() is a
    assert b.timer_stats("t").count == 1
    assert a.timer_stats("t").count == 0


def test_enable_disable_metrics():
    previous = get_registry()
    try:
        reg = enable_metrics()
        assert get_registry() is reg
        assert reg.enabled
        with phase("x"):
            pass
        assert reg.timer_stats("x").count == 1
        disable_metrics()
        assert isinstance(get_registry(), NullRegistry)
    finally:
        set_registry(previous)


def test_timed_disabled_path_skips_clock(monkeypatch):
    """With no sink active and no dict, a phase must not read the clock."""
    import time

    def no_clock():
        raise AssertionError("clock read with no sink active")

    monkeypatch.setattr(time, "perf_counter", no_clock)
    with phase("x", k=1):
        pass
    with phase("x", registry=NullRegistry()):
        pass
    with pytest.raises(AssertionError, match="clock read"):
        with phase("x", {}):
            pass


def test_phase_binds_registry_at_entry():
    block = phase("fn.call")  # built under the NullRegistry
    reg = MetricsRegistry()
    with use_registry(reg):
        with block:
            pass
        with phase("fn.call"):
            pass
    assert reg.timer_stats("fn.call").count == 2


def test_phase_feeds_profile_dict_by_stem():
    profile = {}
    with phase("tour.instance_build", profile):
        pass
    with phase("flat", profile):
        pass
    assert set(profile) == {"instance_build_s", "flat_s"}
    assert all(v >= 0.0 for v in profile.values())


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_span_nesting_depths_and_exit_order():
    tracer = Tracer()
    with use_tracer(tracer):
        with phase("outer", run=1):
            with phase("inner.a", sensor=3):
                pass
            with phase("inner.b"):
                pass
    names = [e.name for e in tracer.events]
    assert names == ["inner.a", "inner.b", "outer"]  # exit order
    by_name = {e.name: e for e in tracer.events}
    assert by_name["outer"].depth == 0
    assert by_name["inner.a"].depth == 1
    assert by_name["inner.b"].depth == 1
    assert by_name["inner.a"].attrs == {"sensor": 3}
    outer = by_name["outer"]
    assert outer.start_s <= by_name["inner.a"].start_s
    assert outer.duration_s >= by_name["inner.a"].duration_s


def test_tracer_reset():
    tracer = Tracer()
    with use_tracer(tracer), phase("x"):
        pass
    tracer.reset()
    assert tracer.events == []
    assert tracer._depth == 0


def test_jsonl_roundtrip():
    tracer = Tracer()
    with use_tracer(tracer):
        with phase("a", k="v"):
            with phase("b"):
                pass
    text = tracer.to_jsonl()
    events = events_from_jsonl(text)
    assert events == tracer.events
    assert events_from_jsonl("") == []


def test_chrome_trace_valid():
    tracer = Tracer()
    with use_tracer(tracer), phase("phase", n=10):
        pass
    doc = json.loads(tracer.to_chrome_trace())
    assert doc["displayTimeUnit"] == "ms"
    (event,) = doc["traceEvents"]
    assert event["name"] == "phase"
    assert event["ph"] == "X"
    assert event["cat"] == "repro"
    assert event["args"] == {"n": 10}
    assert event["dur"] >= 0.0


def test_global_span_defaults_to_noop():
    assert isinstance(get_tracer(), NullTracer)
    with phase("anything", k=1):
        pass  # must not record or raise
    assert get_tracer().events == []
    assert get_registry().snapshot()["timers"] == {}


def test_use_tracer_scopes_and_restores():
    outer = get_tracer()
    tracer = Tracer()
    with use_tracer(tracer):
        assert get_tracer() is tracer
        with phase("scoped"):
            pass
    assert get_tracer() is outer
    assert [e.name for e in tracer.events] == ["scoped"]


def test_set_tracer_returns_previous():
    original = get_tracer()
    t = Tracer()
    previous = set_tracer(t)
    try:
        assert previous is original
        assert get_tracer() is t
    finally:
        set_tracer(original)


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
def test_get_logger_hierarchy():
    assert get_logger().name == "repro"
    assert get_logger("core.knapsack").name == "repro.core.knapsack"
    assert get_logger("repro.sim").name == "repro.sim"


def test_verbosity_to_level():
    assert verbosity_to_level(0) == logging.WARNING
    assert verbosity_to_level(1) == logging.INFO
    assert verbosity_to_level(2) == logging.DEBUG
    assert verbosity_to_level(9) == logging.DEBUG


def test_configure_logging_idempotent():
    root = get_logger()
    before = list(root.handlers)
    stream = io.StringIO()
    try:
        configure_logging(1, stream=stream)
        count_after_first = len(root.handlers)
        configure_logging(2, stream=stream)
        assert len(root.handlers) == count_after_first  # no stacking
        assert root.level == logging.DEBUG
        get_logger("test").debug("hello world")
        assert "hello world" in stream.getvalue()
    finally:
        for h in list(root.handlers):
            if h not in before:
                root.removeHandler(h)
        root.setLevel(logging.WARNING)


# ----------------------------------------------------------------------
# Integration: instrumented solves + profile report
# ----------------------------------------------------------------------
def test_run_tour_populates_registry_and_profile():
    from repro.sim.algorithms import get_algorithm
    from repro.sim.scenario import ScenarioConfig
    from repro.sim.simulator import run_tour

    scenario = ScenarioConfig(num_sensors=30, path_length=1500.0).build(seed=7)
    reg = MetricsRegistry()
    with use_registry(reg):
        result = run_tour(scenario, get_algorithm("Offline_Appro"), mutate=False)
    assert reg.counter("tour.runs") == 1
    assert reg.counter("knapsack.calls") >= 1
    assert reg.timer_stats("tour.solve").count == 1
    assert reg.timer_stats("tour.instance_build").count == 1
    for key in (
        "instance_build_s",
        "solve_s",
        "verify_s",
        "energy_update_s",
        "total_s",
    ):
        assert key in result.profile
        assert result.profile[key] >= 0.0
    assert result.profile["total_s"] >= result.profile["solve_s"]
    assert result.wall_time == result.profile["solve_s"]


def test_profile_report_structure():
    from repro.sim.algorithms import get_algorithm
    from repro.sim.scenario import ScenarioConfig
    from repro.sim.simulator import run_tour

    scenario = ScenarioConfig(num_sensors=30, path_length=1500.0).build(seed=3)
    reg = MetricsRegistry()
    with use_registry(reg):
        result = run_tour(scenario, get_algorithm("Online_Appro"), mutate=False)
    report = profile_report(
        result, reg, algorithm="Online_Appro", scenario={"num_sensors": 30}
    )
    doc = json.loads(json.dumps(report))  # must survive JSON round-trip
    assert doc["format"] == "repro.profile_report"
    assert doc["version"] == 1
    assert doc["algorithm"] == "Online_Appro"
    assert doc["scenario"]["num_sensors"] == 30
    assert doc["result"]["collected_bits"] == pytest.approx(result.collected_bits)
    assert doc["result"]["messages"]["total_messages"] >= 0
    assert "solve_s" in doc["phases"]
    assert doc["counters"]["tour.runs"] == 1
    assert "tour.solve" in doc["timers"]


def test_solves_are_clean_under_default_null_registry():
    """Instrumented code must run untouched with observability off."""
    from repro.sim.algorithms import get_algorithm
    from repro.sim.scenario import ScenarioConfig
    from repro.sim.simulator import run_tour

    assert isinstance(get_registry(), NullRegistry)
    scenario = ScenarioConfig(num_sensors=30, path_length=1500.0).build(seed=11)
    result = run_tour(scenario, get_algorithm("Offline_Appro"), mutate=False)
    assert result.collected_bits > 0
    assert "solve_s" in result.profile  # profile is always populated


#: Every tour phase, as ``run_tour`` with ``certify=True`` emits them.
TOUR_PHASES = {"total", "instance_build", "solve", "verify", "certify", "energy_update"}


@pytest.mark.parametrize("algorithm", ["Offline_Appro", "Online_Appro", "Offline_MaxMatch"])
@pytest.mark.parametrize("seed", range(5))
def test_tour_phase_views_agree_exactly(algorithm, seed):
    """Span duration, timer observation and profile entry of every tour
    phase are one measurement: equal under ``==``, not approximately."""
    from repro.sim.algorithms import get_algorithm, requires_fixed_power
    from repro.sim.scenario import ScenarioConfig
    from repro.sim.simulator import run_tour

    config = ScenarioConfig(
        num_sensors=100, fixed_power=0.3 if requires_fixed_power(algorithm) else None
    )
    scenario = config.build(seed=seed)
    reg = MetricsRegistry()
    tracer = Tracer()
    with use_registry(reg), use_tracer(tracer):
        result = run_tour(scenario, get_algorithm(algorithm), mutate=False, certify=True)
    spans = {e.name: e for e in tracer.events if e.name.startswith("tour.")}
    timers = reg.dump()["timers"]
    assert set(spans) == {f"tour.{stem}" for stem in TOUR_PHASES}
    assert set(result.profile) == {f"{stem}_s" for stem in TOUR_PHASES}
    for name, event in spans.items():
        seconds = result.profile[name.rpartition(".")[2] + "_s"]
        assert event.duration_s == seconds, name
        assert timers[name] == [seconds], name


def test_tour_phases_sum_to_total_on_quick_bench_grid(monkeypatch):
    """Per quick-bench tour, the median over 5 repeats of ``total_s``
    minus the other tour phases (the time no phase covers) is in
    [0, 100 µs].  Batch cells count one tour per algorithm, perpetual
    cells one per tour index, and a certified cell apart from the
    uncertified cell of the same shape."""
    import statistics
    from collections import defaultdict

    from repro.experiments import bench
    from repro.sim import batch, simulator

    gaps = defaultdict(list)

    def recording(run_tour, source):
        def wrapper(scenario, algorithm, **kwargs):
            result = run_tour(scenario, algorithm, **kwargs)
            phases = dict(result.profile)
            total = phases.pop("total_s")
            key = (
                source,
                scenario.config,
                algorithm.name,
                kwargs.get("tour_index", 0),
                kwargs.get("certify", False),
            )
            gaps[key].append(total - sum(phases.values()))
            return result

        return wrapper

    monkeypatch.setattr(bench, "run_tour", recording(bench.run_tour, "cell"))
    monkeypatch.setattr(batch, "run_tour", recording(batch.run_tour, "batch"))
    # simulate_tours (the Perpetual[...] cells) calls the simulator's own.
    monkeypatch.setattr(simulator, "run_tour", recording(simulator.run_tour, "perpetual"))
    document = bench.run_bench(quick=True, repeat=5)
    perpetual = len(bench.PERPETUAL_GRID)
    cells = (
        len(document["entries"])
        - 1
        + len(bench.BATCH_ALGORITHMS)
        - perpetual
        + perpetual * bench.PERPETUAL_TOURS
    )
    assert len(gaps) == cells
    for (source, config, name, tour, certify), values in gaps.items():
        assert len(values) == 5
        gap = statistics.median(values)
        assert 0.0 <= gap <= 100e-6, (source, name, config.num_sensors, tour, certify, gap)
