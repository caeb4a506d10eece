"""Request-scoped telemetry primitives: context, access log, Prometheus.

Covers the three PR-3 ``repro.obs`` modules (``context``, ``accesslog``,
``promexpo``) plus the registry ``dump``/``merge`` pair and the
reusable Chrome trace serialiser that worker→parent metrics merging and
slow-request trace capture are built on.  The live-server integration
of all of this lives in ``tests/test_service.py``.
"""

from __future__ import annotations

import io
import json
import logging
from pathlib import Path

import pytest

from repro.obs import (
    MetricsRegistry,
    RequestIdFilter,
    Tracer,
    annotate,
    chrome_trace_document,
    configure_access_log,
    configure_logging,
    current_context,
    current_request_id,
    get_access_logger,
    log_access,
    new_request_id,
    phase,
    render_prometheus,
    request_context,
    use_tracer,
)
from repro.obs.promexpo import PROMETHEUS_CONTENT_TYPE

GOLDEN = Path(__file__).parent / "data" / "prometheus_golden.txt"


# ----------------------------------------------------------------------
# request context
# ----------------------------------------------------------------------
def test_no_context_by_default():
    assert current_context() is None
    assert current_request_id() is None
    annotate("ignored", 1)  # must not raise outside a request


def test_request_context_generates_and_restores():
    with request_context() as ctx:
        assert current_request_id() == ctx.request_id
        assert len(ctx.request_id) == 32
        int(ctx.request_id, 16)  # hex
    assert current_request_id() is None


def test_request_context_honours_valid_inbound_id():
    with request_context("client-id_1.2") as ctx:
        assert ctx.request_id == "client-id_1.2"


@pytest.mark.parametrize(
    "bad", ["", "has space", "x" * 129, "new\nline", 'quo"te', None]
)
def test_request_context_regenerates_suspicious_ids(bad):
    with request_context(bad) as ctx:
        assert ctx.request_id != bad
        assert len(ctx.request_id) == 32


def test_request_contexts_nest_and_shadow():
    with request_context("outer-id") as outer:
        with request_context("inner-id"):
            assert current_request_id() == "inner-id"
        assert current_request_id() == "outer-id"
        assert current_context() is outer


def test_annotate_lands_on_current_context():
    with request_context() as ctx:
        annotate("cached", True)
        annotate("job_id", "job-000007")
        assert ctx.annotations == {"cached": True, "job_id": "job-000007"}


def test_new_request_ids_are_unique():
    assert new_request_id() != new_request_id()


def test_request_id_filter_stamps_records():
    record = logging.LogRecord("repro.x", logging.INFO, __file__, 1, "m", (), None)
    filt = RequestIdFilter()
    assert filt.filter(record) is True
    assert record.request_id == "-"
    with request_context("rid-42"):
        filt.filter(record)
        assert record.request_id == "rid-42"


def test_configured_logging_appends_request_id():
    stream = io.StringIO()
    configure_logging(verbosity=1, stream=stream)
    logger = logging.getLogger("repro.telemetry_test")
    logger.info("outside")
    with request_context("rid-log-1"):
        logger.info("inside")
    lines = stream.getvalue().splitlines()
    assert "[request_id=" not in lines[0]
    assert lines[1].endswith("[request_id=rid-log-1]")


def test_tracer_spans_pick_up_request_id():
    tracer = Tracer()
    with use_tracer(tracer), request_context("rid-span"):
        with phase("phase", foo=1):
            pass
        with phase("explicit", request_id="mine"):
            pass
    assert tracer.events[0].attrs == {"foo": 1, "request_id": "rid-span"}
    assert tracer.events[1].attrs == {"request_id": "mine"}


# ----------------------------------------------------------------------
# access log
# ----------------------------------------------------------------------
def test_access_log_is_silent_until_configured():
    # Fresh logger state: only the module's NullHandler plus whatever a
    # previous configure installed; emitting must never print to stderr.
    logger = get_access_logger()
    assert logger.propagate is False


def test_access_log_json_line_shape():
    stream = io.StringIO()
    configure_access_log(stream=stream)
    log_access(
        method="POST",
        path="/v1/solve",
        status=200,
        duration_ms=12.3456,
        request_id="rid-1",
        cached=False,
        job_id="job-000001",
    )
    line = stream.getvalue().strip()
    doc = json.loads(line)
    assert doc["method"] == "POST"
    assert doc["path"] == "/v1/solve"
    assert doc["status"] == 200
    assert doc["duration_ms"] == pytest.approx(12.346)
    assert doc["request_id"] == "rid-1"
    assert doc["cached"] is False
    assert doc["job_id"] == "job-000001"
    # Stable field order: fixed fields first, annotations sorted after.
    assert list(doc)[:6] == ["time", "method", "path", "status", "duration_ms", "request_id"]
    assert list(doc)[6:] == ["cached", "job_id"]


def test_access_log_reconfigure_swaps_handler(tmp_path):
    stream = io.StringIO()
    configure_access_log(stream=stream)
    path = tmp_path / "access.log"
    configure_access_log(path=str(path))
    try:
        log_access("GET", "/healthz", 200, 0.1, request_id="rid-2")
        text = path.read_text(encoding="utf-8")
        assert json.loads(text)["path"] == "/healthz"
        assert stream.getvalue() == ""  # old handler was replaced, not stacked
    finally:
        configure_access_log(stream=io.StringIO())


# ----------------------------------------------------------------------
# prometheus exposition
# ----------------------------------------------------------------------
def _golden_snapshot():
    return {
        "counters": {
            "service.cache.hit": 3.0,
            "knapsack.calls": 100.0,
            "knapsack.method[few_weights]": 99.0,
            "knapsack.method[dp]": 1.0,
            "service.http.status[200]": 7.0,
            "service.http.status[404]": 1.0,
            "planner.plans": 2.0,
            "planner.sweep.segments": 11.0,
            "planner.multisink.splits": 1.0,
            "2weird name!": 2.0,
        },
        "gauges": {
            "service.queue.depth": 3.0,
            "lp.num_vars": 1234.0,
            "planner.tour_length_m": 1500.0,
            "planner.sinks": 1.0,
        },
        "timers": {
            "planner.plan": {
                "count": 2,
                "total_s": 0.01,
                "min_s": 0.004,
                "max_s": 0.006,
                "mean_s": 0.005,
                "p50_s": 0.004,
                "p95_s": 0.006,
                "p99_s": 0.006,
            },
            "knapsack.solve": {
                "count": 100,
                "total_s": 0.5,
                "min_s": 0.001,
                "max_s": 0.02,
                "mean_s": 0.005,
                "p50_s": 0.004,
                "p95_s": 0.009,
                "p99_s": 0.015,
            },
            "matching.engine[scipy]": {
                "count": 4,
                "total_s": 1.25,
                "min_s": 0.25,
                "max_s": 0.5,
                "mean_s": 0.3125,
                "p50_s": 0.25,
                "p95_s": 0.5,
                "p99_s": 0.5,
            },
        },
    }


def test_prometheus_golden_file():
    assert render_prometheus(_golden_snapshot()) == GOLDEN.read_text(encoding="utf-8")


def test_prometheus_output_is_deterministic():
    text = render_prometheus(_golden_snapshot())
    # Reordered input must render identically (families sort by name).
    reordered = json.loads(json.dumps(_golden_snapshot()))
    reordered["counters"] = dict(reversed(list(reordered["counters"].items())))
    assert render_prometheus(reordered) == text


def test_prometheus_empty_snapshot():
    assert render_prometheus({"counters": {}, "gauges": {}, "timers": {}}) == ""
    assert render_prometheus({}) == ""


def test_prometheus_empty_registry_snapshot():
    # A live-but-unused registry renders as the empty exposition too.
    assert render_prometheus(MetricsRegistry().snapshot()) == ""


def test_prometheus_counters_only_registry():
    reg = MetricsRegistry()
    reg.inc("loadtest.requests", 5)
    text = render_prometheus(reg.snapshot())
    assert text == (
        "# HELP repro_loadtest_requests_total repro registry counter "
        "'loadtest.requests'\n"
        "# TYPE repro_loadtest_requests_total counter\n"
        "repro_loadtest_requests_total 5\n"
    )


def test_prometheus_timer_p99_quantile():
    reg = MetricsRegistry()
    reg.observe("solve", 0.25)
    text = render_prometheus(reg.snapshot())
    assert 'repro_solve_seconds{quantile="0.99"} 0.25' in text


def test_prometheus_label_escaping():
    text = render_prometheus(
        {"counters": {'x.variant[a"b\\c\nd]': 1.0}, "gauges": {}, "timers": {}}
    )
    assert '{variant="a\\"b\\\\c\\nd"}' in text


def test_prometheus_counter_total_suffix_not_duplicated():
    text = render_prometheus(
        {"counters": {"requests_total": 5.0}, "gauges": {}, "timers": {}}
    )
    assert "repro_requests_total 5" in text
    assert "total_total" not in text


def test_prometheus_content_type_pinned():
    assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")
    assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


def test_prometheus_renders_live_registry_snapshot():
    registry = MetricsRegistry()
    registry.inc("service.http.requests", 2)
    registry.set_gauge("service.queue.depth", 1)
    registry.observe("service.request", 0.25)
    text = render_prometheus(registry.snapshot())
    assert "repro_service_http_requests_total 2" in text
    assert "repro_service_queue_depth 1" in text
    assert 'repro_service_request_seconds{quantile="0.5"} 0.25' in text
    assert "repro_service_request_seconds_count 1" in text


# ----------------------------------------------------------------------
# registry dump/merge (worker → parent)
# ----------------------------------------------------------------------
def test_dump_merge_roundtrip_preserves_snapshot():
    worker = MetricsRegistry()
    worker.inc("knapsack.calls", 30)
    worker.set_gauge("lp.num_vars", 99)
    for v in (0.1, 0.2, 0.3):
        worker.observe("knapsack.solve", v)
    parent = MetricsRegistry()
    parent.merge(worker.dump())
    assert parent.snapshot() == worker.snapshot()


def test_merge_accumulates_counters_and_observations():
    parent = MetricsRegistry()
    parent.inc("knapsack.calls", 5)
    parent.observe("knapsack.solve", 1.0)
    dump = {"counters": {"knapsack.calls": 3}, "timers": {"knapsack.solve": [2.0, 3.0]}}
    parent.merge(dump)
    parent.merge({"gauges": {"service.queue.depth": 4}})
    assert parent.counter("knapsack.calls") == 8
    assert parent.timer_stats("knapsack.solve").count == 3
    assert parent.timer_stats("knapsack.solve").total == pytest.approx(6.0)
    assert parent.gauge("service.queue.depth") == 4.0


def test_dump_is_plain_json_serialisable():
    registry = MetricsRegistry()
    registry.inc("c")
    registry.observe("t", 0.5)
    dump = registry.dump()
    assert json.loads(json.dumps(dump)) == dump


def test_null_registry_merge_is_noop():
    from repro.obs import NullRegistry

    null = NullRegistry()
    null.merge({"counters": {"x": 1}})
    assert null.counter("x") == 0.0


def test_merge_preserves_raw_samples_for_quantiles():
    # 19 fast worker observations + 1 slow one: a merge that shipped
    # summaries instead of raw samples could not recover the true p99.
    parent = MetricsRegistry()
    direct = MetricsRegistry()
    for _ in range(19):
        worker = MetricsRegistry()
        worker.observe("knapsack.solve", 0.01)
        parent.merge(worker.dump())
        direct.observe("knapsack.solve", 0.01)
    slow = MetricsRegistry()
    slow.observe("knapsack.solve", 1.0)
    parent.merge(slow.dump())
    direct.observe("knapsack.solve", 1.0)

    stats = parent.timer_stats("knapsack.solve")
    assert stats.count == 20
    assert stats.p99 == pytest.approx(1.0)
    assert stats.p50 == pytest.approx(0.01)
    assert stats.max == pytest.approx(1.0)
    assert stats.as_dict() == direct.timer_stats("knapsack.solve").as_dict()


def test_merge_order_invariance():
    dumps = []
    for values in ([0.1, 0.2], [0.9], [0.3, 0.4, 0.5]):
        worker = MetricsRegistry()
        worker.inc("knapsack.calls", len(values))
        for v in values:
            worker.observe("knapsack.solve", v)
        dumps.append(worker.dump())

    forward = MetricsRegistry()
    backward = MetricsRegistry()
    for dump in dumps:
        forward.merge(dump)
    for dump in reversed(dumps):
        backward.merge(dump)
    assert forward.counter("knapsack.calls") == backward.counter("knapsack.calls")
    assert (
        forward.timer_stats("knapsack.solve").as_dict()
        == backward.timer_stats("knapsack.solve").as_dict()
    )


def test_dump_is_a_snapshot_not_a_view():
    worker = MetricsRegistry()
    worker.inc("knapsack.calls")
    worker.observe("knapsack.solve", 0.1)
    dump = worker.dump()
    worker.inc("knapsack.calls", 10)
    worker.observe("knapsack.solve", 9.9)
    parent = MetricsRegistry()
    parent.merge(dump)
    assert parent.counter("knapsack.calls") == 1
    assert parent.timer_stats("knapsack.solve").count == 1
    assert parent.timer_stats("knapsack.solve").max == pytest.approx(0.1)


def test_repeated_merges_sum_counters():
    worker = MetricsRegistry()
    worker.inc("knapsack.calls", 4)
    dump = worker.dump()
    parent = MetricsRegistry()
    parent.merge(dump)
    parent.merge(dump)
    parent.merge(dump)
    assert parent.counter("knapsack.calls") == 12


# ----------------------------------------------------------------------
# chrome trace document from plain span dicts
# ----------------------------------------------------------------------
def test_chrome_trace_document_accepts_dicts_and_events():
    tracer = Tracer()
    with use_tracer(tracer), phase("tour.solve", algorithm="Offline_Appro"):
        pass
    as_dicts = [e.as_dict() for e in tracer.events]
    doc_from_events = json.loads(chrome_trace_document(tracer.events, pid=1))
    doc_from_dicts = json.loads(chrome_trace_document(as_dicts, pid=1))
    assert doc_from_events == doc_from_dicts
    event = doc_from_dicts["traceEvents"][0]
    assert event["name"] == "tour.solve"
    assert event["ph"] == "X"
    assert event["args"]["algorithm"] == "Offline_Appro"
    assert doc_from_dicts["displayTimeUnit"] == "ms"


def test_tracer_to_chrome_trace_still_roundtrips():
    tracer = Tracer()
    with use_tracer(tracer):
        with phase("outer"):
            with phase("inner"):
                pass
    doc = json.loads(tracer.to_chrome_trace())
    assert {e["name"] for e in doc["traceEvents"]} == {"outer", "inner"}
