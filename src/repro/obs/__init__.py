"""repro.obs — zero-dependency instrumentation layer.

Three cooperating pieces, all off (and near-free) by default:

* **metrics** (:mod:`repro.obs.registry`) — a process-global
  :class:`MetricsRegistry` of counters, gauges, and timer histograms
  that the scheduler stack records into; swap in a recording registry
  with :func:`use_registry` / :func:`enable_metrics`, read it back with
  :meth:`MetricsRegistry.snapshot`;
* **tracing** (:mod:`repro.obs.tracing`) — nested phase spans
  exportable as JSONL or Chrome ``trace_event`` JSON for
  ``chrome://tracing``;
* **logging** (:mod:`repro.obs.log`) — the stdlib ``repro.*`` logger
  hierarchy behind :func:`get_logger`, wired to the CLI's
  ``-v/--verbose`` flag through :func:`configure_logging`.

Every timed block goes through one primitive, :class:`phase`
(:mod:`repro.obs.phases`): ``with phase("tour.solve", profile,
deep=True): ...`` reads the clock once on entry and once on exit and
feeds that interval to the registry timer ``tour.solve``, the tracer
span ``tour.solve``, ``profile["solve_s"]`` and the deep profiler's
``solve`` window — whichever are active — so the views cannot disagree.

Three request-scoped pieces serve the HTTP planning service:

* **context** (:mod:`repro.obs.context`) — a ``contextvars``-carried
  request id (honouring inbound ``X-Request-Id``) plus free-form
  annotations, stamped into log records and span attributes;
* **access logs** (:mod:`repro.obs.accesslog`) — one structured JSON
  line per served request through the dedicated ``repro.access`` logger;
* **Prometheus exposition** (:mod:`repro.obs.promexpo`) —
  :func:`render_prometheus` turns any registry snapshot into text
  exposition format 0.0.4 for ``GET /metrics?format=prometheus``.

Two offline analysis pieces ride on top:

* **deep profiling** (:mod:`repro.obs.profiling`) — per-phase
  cProfile + tracemalloc attribution (hot-function tables, peak-memory
  gauges, flamegraph-folded stacks) over every ``phase(..., deep=True)``
  window under :func:`use_profiler`, wired into ``repro profile
  --deep`` and the service's slow-request capture;
* **perf ledger** (:mod:`repro.obs.trend`) — the append-only
  ``repro bench --record`` ledger, the ``repro trend`` sparklines over
  it, and the one regression gate (wall, counter and output policy)
  behind both ``repro trend --gate`` and ``repro bench --compare``.

:func:`profile_report` fuses a tour result and a registry snapshot into
the JSON document ``python -m repro profile`` emits.

Quick profile of a run::

    from repro import ScenarioConfig, get_algorithm, run_tour
    from repro.obs import MetricsRegistry, use_registry

    with use_registry(MetricsRegistry()) as reg:
        scenario = ScenarioConfig(num_sensors=100).build(seed=7)
        result = run_tour(scenario, get_algorithm("Offline_Appro"))
    print(reg.snapshot()["counters"]["knapsack.calls"])
    print(result.profile)   # per-phase seconds
"""

from repro.obs.accesslog import (
    AccessLogFormatter,
    configure_access_log,
    get_access_logger,
    log_access,
)
from repro.obs.context import (
    RequestContext,
    RequestIdFilter,
    annotate,
    current_context,
    current_request_id,
    new_request_id,
    request_context,
)
from repro.obs.log import configure_logging, get_logger, verbosity_to_level
from repro.obs.phases import phase
from repro.obs.profiling import (
    DeepProfiler,
    NullProfiler,
    get_profiler,
    set_profiler,
    use_profiler,
)
from repro.obs.promexpo import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.registry import (
    MetricsRegistry,
    NullRegistry,
    TimerStats,
    disable_metrics,
    enable_metrics,
    get_registry,
    inc,
    set_gauge,
    set_registry,
    use_registry,
)
from repro.obs.report import profile_report, render_profile_report
from repro.obs.trend import (
    build_trend,
    compare_bench,
    gate_trend,
    load_history,
    record_bench,
    render_trend,
    sparkline,
)
from repro.obs.tracing import (
    NullTracer,
    SpanEvent,
    Tracer,
    chrome_trace_document,
    events_from_jsonl,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    # phases
    "phase",
    # registry
    "MetricsRegistry",
    "NullRegistry",
    "TimerStats",
    "get_registry",
    "set_registry",
    "use_registry",
    "enable_metrics",
    "disable_metrics",
    "inc",
    "set_gauge",
    # tracing
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "events_from_jsonl",
    "chrome_trace_document",
    # deep profiling
    "DeepProfiler",
    "NullProfiler",
    "get_profiler",
    "set_profiler",
    "use_profiler",
    # perf ledger
    "record_bench",
    "load_history",
    "build_trend",
    "render_trend",
    "gate_trend",
    "compare_bench",
    "sparkline",
    # logging
    "get_logger",
    "configure_logging",
    "verbosity_to_level",
    # request context
    "RequestContext",
    "RequestIdFilter",
    "request_context",
    "current_context",
    "current_request_id",
    "new_request_id",
    "annotate",
    # access log
    "AccessLogFormatter",
    "configure_access_log",
    "get_access_logger",
    "log_access",
    # prometheus exposition
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    # reports
    "profile_report",
    "render_profile_report",
]
