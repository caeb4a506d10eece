"""HTTP planning API: stdlib JSON server over the solver library.

Two layers, separable for testing:

* :class:`PlanningService` — transport-free facade tying the request
  schema, the content-addressed :class:`~repro.service.cache.ResultCache`
  and the bounded :class:`~repro.service.executor.JobExecutor` together;
  call it directly from tests or notebooks.
* :class:`PlanningServer` / :func:`create_server` / :func:`run_server` —
  a ``ThreadingHTTPServer`` speaking JSON over these endpoints:

  ========================  ====================================================
  ``GET  /healthz``         liveness + uptime + queue/cache occupancy
  ``GET  /metrics``         registry snapshot: JSON by default, Prometheus
                            text 0.0.4 via ``?format=prometheus`` or
                            ``Accept: text/plain``
  ``GET  /v1/algorithms``   registered algorithms + fixed-power requirements
  ``POST /v1/solve``        synchronous solve (cache → coalesce → worker pool)
  ``POST /v1/solve-batch``  synchronous multi-solve: per-item cache checks,
                            one worker job for the misses (scenarios shared
                            per deployment), per-item cache stores
  ``POST /v1/jobs``         asynchronous submit; returns a pollable job id
  ``GET  /v1/jobs/{id}``    job state; includes the result once done
  ``DELETE /v1/jobs/{id}``  cancel a queued job
  ========================  ====================================================

Error mapping: schema violations → 400 (typed body from
:class:`~repro.service.schema.RequestError`), unknown routes/jobs → 404,
queue saturation → 429, deadline misses → 504, solver failures → 500.

Request-scoped telemetry: every request runs under a request id
(generated, or the client's valid ``X-Request-Id``) echoed in the
response headers; one structured JSON access-log line per request goes
through :mod:`repro.obs.accesslog`; latency lands in ``service.request``
/ ``service.solve`` plus per-route ``service.http.<route>`` timers; and
with ``trace_threshold`` set, slow synchronous solves persist their
worker-side span trace as Chrome ``trace_event`` JSON under
``trace_dir``.

:func:`run_server` adds the process lifecycle: SIGTERM/SIGINT stop the
accept loop, the executor drains in-flight jobs, and the process exits
0 — so ``kill -TERM`` on ``python -m repro serve`` never drops work.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.core.lp import load_highs
from repro.obs import get_logger, phase
from repro.obs.accesslog import log_access
from repro.obs.context import annotate, current_request_id, request_context
from repro.obs.promexpo import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.tracing import chrome_trace_document
from repro.service.cache import ResultCache
from repro.service.executor import JobExecutor, JobState, JobTimeoutError, QueueFullError
from repro.service.schema import (
    DEFAULT_MAX_BATCH_ITEMS,
    DEFAULT_MAX_SENSORS,
    RequestError,
    parse_batch_request,
    parse_solve_request,
)
from repro.service.worker import (
    FOLDED_STACKS_KEY,
    TRACE_EVENTS_KEY,
    WORKER_METRICS_KEY,
    solve_batch_payload,
    solve_payload,
)
from repro.sim.algorithms import ALGORITHMS, requires_fixed_power

__all__ = ["PlanningService", "PlanningServer", "create_server", "run_server"]

_log = get_logger("service.server")

#: Request bodies beyond this are refused with a 413-style error.
MAX_BODY_BYTES = 1 << 20

#: Result keys that never leave the process (merged/persisted first).
_INTERNAL_RESULT_KEYS = (WORKER_METRICS_KEY, TRACE_EVENTS_KEY, FOLDED_STACKS_KEY)


def _client_result(result: dict) -> dict:
    """A copy of a worker result with the internal telemetry keys
    (registry dump, captured spans, folded stacks) stripped — the
    client-visible body."""
    return {k: v for k, v in result.items() if k not in _INTERNAL_RESULT_KEYS}


class PlanningService:
    """Transport-free planning service: schema + cache + executor.

    Parameters
    ----------
    workers:
        Solver worker processes (``None`` → one per core).
    cache_size:
        LRU capacity of the result cache (0 disables caching).
    request_timeout:
        Deadline (seconds) for synchronous solves; misses surface as
        :class:`~repro.service.executor.JobTimeoutError` (HTTP 504).
    max_queue:
        Bound on unfinished jobs; beyond it submissions raise
        :class:`~repro.service.executor.QueueFullError` (HTTP 429).
    max_sensors:
        Schema-level cap on ``num_sensors`` (HTTP 400 beyond it).
    max_batch_items:
        Cap on items per ``POST /v1/solve-batch`` body (HTTP 400
        beyond it); a batch holds one worker slot for its whole run.
    registry:
        Metrics registry for the ``service.*`` instrumentation.
        ``None`` adopts the process-global registry if it records, else
        installs a private recording one — either way ``GET /metrics``
        is never empty-by-accident.
    trace_threshold:
        Slow-request threshold in seconds.  When set, every solve
        captures its solver span trace in the worker, and synchronous
        requests slower than the threshold persist it as Chrome
        ``trace_event`` JSON under ``trace_dir`` (``0`` traces every
        request; ``None`` — the default — disables capture entirely).
    trace_dir:
        Directory slow-request traces are written to (created on
        demand; default ``"traces"`` when ``trace_threshold`` is set).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_size: int = 128,
        request_timeout: Optional[float] = 30.0,
        max_queue: int = 32,
        max_sensors: int = DEFAULT_MAX_SENSORS,
        max_batch_items: int = DEFAULT_MAX_BATCH_ITEMS,
        registry: Optional[MetricsRegistry] = None,
        trace_threshold: Optional[float] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        if registry is None:
            current = get_registry()
            registry = current if current.enabled else MetricsRegistry()
        if trace_threshold is not None and trace_threshold < 0:
            raise ValueError(f"trace_threshold must be >= 0, got {trace_threshold}")
        self.registry = registry
        self.request_timeout = request_timeout
        self.max_sensors = max_sensors
        self.max_batch_items = max_batch_items
        self.trace_threshold = trace_threshold
        self.trace_dir = (
            None
            if trace_threshold is None
            else Path(trace_dir if trace_dir is not None else "traces")
        )
        self._started = time.monotonic()
        self.cache = ResultCache(cache_size, registry=registry)
        # Workers fork from this process, so no request pays for the import.
        load_highs()
        self.executor = JobExecutor(
            workers=workers,
            max_queue=max_queue,
            default_timeout=request_timeout,
            registry=registry,
        )

    # ------------------------------------------------------------------
    @property
    def trace_enabled(self) -> bool:
        """Whether workers capture span traces for this service."""
        return self.trace_threshold is not None

    def _submit(self, request) -> Tuple[object, bool]:
        """Submit a parsed request, wiring the job's result into the
        cache on completion; returns ``(job, created)``."""
        key = request.cache_key()
        cache = self.cache

        def _store(future) -> None:
            if not future.cancelled() and future.exception() is None:
                cache.put(key, _client_result(future.result()))

        return self.executor.submit(
            solve_payload,
            request.payload(trace=self.trace_enabled),
            key=key,
            on_result=_store,
        )

    def _persist_trace(self, result: dict, elapsed_s: float) -> Optional[str]:
        """Write a slow request's captured solver spans as Chrome
        ``trace_event`` JSON — plus its flamegraph-folded stacks as
        ``<request_id>.folded`` when the worker captured any; returns
        the trace file path (annotated into the access log as
        ``trace_path``; the folded path lands under ``folded_path``),
        or ``None`` when the request was fast enough or carried no
        spans."""
        if self.trace_threshold is None or elapsed_s < self.trace_threshold:
            return None
        events = result.get(TRACE_EVENTS_KEY)
        if not events:
            return None
        name = current_request_id() or f"solve-{int(time.time() * 1e3):d}"
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"{name}.trace.json"
        path.write_text(chrome_trace_document(events), encoding="utf-8")
        annotate("trace_path", str(path))
        folded = result.get(FOLDED_STACKS_KEY)
        if folded:
            folded_path = self.trace_dir / f"{name}.folded"
            folded_path.write_text(folded, encoding="utf-8")
            annotate("folded_path", str(folded_path))
        _log.info(
            "slow request (%.3f s >= %.3f s): trace written to %s",
            elapsed_s,
            self.trace_threshold,
            path,
        )
        return str(path)

    def solve(self, doc: object) -> dict:
        """Synchronous solve of a decoded JSON body.

        Cache hits return immediately (``"cached": true``); otherwise
        the request coalesces onto any identical in-flight job or
        submits a new one, then waits out ``request_timeout``.  With
        slow-request tracing enabled, a solve outlasting
        ``trace_threshold`` persists its solver span trace.
        """
        started = time.perf_counter()
        with phase("service.request", registry=self.registry):
            request = parse_solve_request(doc, max_sensors=self.max_sensors)
            key = request.cache_key()
            cached = self.cache.get(key)
            if cached is not None:
                annotate("cached", True)
                return {**cached, "cached": True}
            annotate("cached", False)
            job, _created = self._submit(request)
            annotate("job_id", job.id)
            with phase("service.solve", registry=self.registry):
                result = self.executor.wait(job, timeout=self.request_timeout)
            self._persist_trace(result, time.perf_counter() - started)
            # The job's on_result callback stored it in the cache already.
            return {**_client_result(result), "cached": False}

    def solve_batch(self, doc: object) -> dict:
        """Synchronous batch solve of a decoded JSON body.

        Every item is first checked against the result cache (the same
        content-addressed keys ``POST /v1/solve`` uses, so single and
        batch solves interoperate); the misses become **one** worker job
        (:func:`~repro.service.worker.solve_batch_payload`) that builds
        each distinct ``(scenario, seed)`` deployment once and shares it
        across that deployment's algorithms.  Each fresh result is
        stored under its own cache key, so replaying the batch — or any
        single item of it — hits the cache.  Returns ``{"results":
        [...], "items": N, "cache_hits": H}`` with per-item ``cached``
        flags, results in item order.
        """
        with phase("service.request", registry=self.registry):
            requests = parse_batch_request(
                doc, max_sensors=self.max_sensors, max_items=self.max_batch_items
            )
            results: list = [None] * len(requests)
            misses = []
            for position, request in enumerate(requests):
                cached = self.cache.get(request.cache_key())
                if cached is not None:
                    results[position] = {**cached, "cached": True}
                else:
                    misses.append(position)
            annotate("batch_items", len(requests))
            annotate("batch_misses", len(misses))
            if misses:
                payload = {
                    "items": [requests[position].payload() for position in misses]
                }
                job, _created = self.executor.submit(solve_batch_payload, payload)
                annotate("job_id", job.id)
                with phase("service.solve", registry=self.registry):
                    outcome = self.executor.wait(job, timeout=self.request_timeout)
                for position, item in zip(misses, outcome["results"]):
                    clean = _client_result(item)
                    self.cache.put(requests[position].cache_key(), clean)
                    results[position] = {**clean, "cached": False}
            return {
                "results": results,
                "items": len(requests),
                "cache_hits": len(requests) - len(misses),
            }

    def submit_job(self, doc: object) -> dict:
        """Asynchronous submit of a decoded JSON body.

        Returns ``{"job_id", "state", "cached"}``; a cache hit is
        registered as an already-finished job so the polling contract
        is uniform.
        """
        with phase("service.request", registry=self.registry):
            request = parse_solve_request(doc, max_sensors=self.max_sensors)
            key = request.cache_key()
            cached = self.cache.get(key)
            if cached is not None:
                job = self.executor.submit_completed(cached, key=key)
                annotate("cached", True)
                annotate("job_id", job.id)
                return {"job_id": job.id, "state": job.state.value, "cached": True}
            job, _created = self._submit(request)
            annotate("cached", False)
            annotate("job_id", job.id)
            return {"job_id": job.id, "state": job.state.value, "cached": False}

    def job_status(self, job_id: str) -> Optional[dict]:
        """Poll a job: its snapshot, plus the result once done
        (``None`` for unknown ids)."""
        job = self.executor.get(job_id)
        if job is None:
            return None
        annotate("job_id", job_id)
        doc = job.snapshot()
        if job.state is JobState.DONE:
            doc["result"] = _client_result(job.result())
        return doc

    def cancel_job(self, job_id: str) -> Optional[dict]:
        """Cancel a queued job; reports whether revocation succeeded
        (``None`` for unknown ids)."""
        job = self.executor.get(job_id)
        if job is None:
            return None
        cancelled = self.executor.cancel(job_id)
        return {"job_id": job_id, "cancelled": cancelled, "state": job.state.value}

    def algorithms(self) -> dict:
        """The algorithm catalogue clients can request."""
        return {
            "algorithms": [
                {"name": name, "requires_fixed_power": requires_fixed_power(name)}
                for name in sorted(ALGORITHMS)
            ]
        }

    def health(self) -> dict:
        """Liveness document: uptime, queue occupancy, cache occupancy."""
        return {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started,
            "queue": self.executor.stats(),
            "cache": self.cache.stats(),
        }

    def metrics(self) -> dict:
        """The service registry's snapshot (``GET /metrics`` body)."""
        return self.registry.snapshot()

    def metrics_text(self) -> str:
        """The snapshot as Prometheus text exposition 0.0.4
        (``GET /metrics?format=prometheus``)."""
        return render_prometheus(self.registry.snapshot())

    def shutdown(self, drain: bool = True) -> None:
        """Stop admissions; with ``drain`` wait for in-flight jobs."""
        self.executor.shutdown(drain=drain)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the owning server's service.

    Every request runs inside a :func:`repro.obs.context.request_context`
    — a generated request id (or the client's valid ``X-Request-Id``)
    that is echoed as a response header, stamped into spans and log
    records, and used to correlate the structured access-log line the
    handler emits after responding.  Per-route latency lands in
    ``service.http.<route>`` timers, plus the ``service.http.requests``
    and ``service.http.status[<code>]`` counters.
    """

    server_version = "repro-planning/1.0"
    protocol_version = "HTTP/1.1"

    #: Request id of the in-flight request (set by :meth:`_dispatch`).
    _request_id: Optional[str] = None
    #: Status of the last response written (set by the send helpers).
    _status: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def service(self) -> PlanningService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.debug("%s %s", self.address_string(), format % args)

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._request_id is not None:
            self.send_header("X-Request-Id", self._request_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, doc: dict) -> None:
        self._send_body(status, json.dumps(doc).encode("utf-8"), "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _read_json(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise RequestError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)",
                status=413,
            )
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw or b"null")
        except json.JSONDecodeError as exc:
            raise RequestError(f"malformed JSON body: {exc}") from None

    def _dispatch(self, route: str, handler: Callable[[], None]) -> None:
        registry = self.service.registry
        timing: Dict[str, float] = {}
        with request_context(self.headers.get("X-Request-Id")) as ctx:
            self._request_id = ctx.request_id
            self._status = None
            try:
                with phase(f"service.http.{route}", timing, registry=registry):
                    try:
                        handler()
                    except RequestError as exc:
                        self._send_json(exc.status, exc.to_dict())
                    except QueueFullError as exc:
                        self._send_json(429, {"error": str(exc), "status": 429})
                    except JobTimeoutError as exc:
                        self._send_json(504, {"error": str(exc), "status": 504})
                    except BrokenPipeError:  # client went away mid-response
                        pass
                    except Exception as exc:  # pragma: no cover - defensive 500
                        _log.exception(
                            "internal error serving %s %s", self.command, self.path
                        )
                        self._send_json(
                            500, {"error": f"internal error: {exc}", "status": 500}
                        )
            finally:
                (elapsed,) = timing.values()  # the one phase's interval
                registry.inc("service.http.requests")
                if self._status is not None:
                    registry.inc(f"service.http.status[{self._status}]")
                log_access(
                    method=self.command,
                    path=self.path,
                    status=self._status,
                    duration_ms=elapsed * 1e3,
                    request_id=ctx.request_id,
                    **ctx.annotations,
                )

    def _not_found(self) -> None:
        self._send_json(
            404, {"error": f"no such endpoint: {self.command} {self.path}", "status": 404}
        )

    # ------------------------------------------------------------------
    def _handle_metrics(self, query: str) -> None:
        """``GET /metrics`` with content negotiation: JSON by default,
        Prometheus text exposition via ``?format=prometheus`` or an
        ``Accept`` header preferring ``text/plain``."""
        fmt = parse_qs(query).get("format", [""])[0].lower()
        accept = self.headers.get("Accept", "")
        if fmt == "prometheus" or (not fmt and "text/plain" in accept):
            self._send_text(200, self.service.metrics_text(), PROMETHEUS_CONTENT_TYPE)
        else:
            self._send_json(200, self.service.metrics())

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._dispatch("healthz", lambda: self._send_json(200, self.service.health()))
        elif path == "/metrics":
            self._dispatch("metrics", lambda: self._handle_metrics(query))
        elif path == "/v1/algorithms":
            self._dispatch(
                "algorithms", lambda: self._send_json(200, self.service.algorithms())
            )
        elif path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/") :]

            def handle() -> None:
                doc = self.service.job_status(job_id)
                if doc is None:
                    self._send_json(
                        404, {"error": f"unknown job {job_id!r}", "status": 404}
                    )
                else:
                    self._send_json(200, doc)

            self._dispatch("jobs.status", handle)
        else:
            self._dispatch("unmatched", self._not_found)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        path, _, _query = self.path.partition("?")
        if path == "/v1/solve":
            self._dispatch(
                "solve",
                lambda: self._send_json(200, self.service.solve(self._read_json())),
            )
        elif path == "/v1/solve-batch":
            self._dispatch(
                "solve_batch",
                lambda: self._send_json(
                    200, self.service.solve_batch(self._read_json())
                ),
            )
        elif path == "/v1/jobs":
            self._dispatch(
                "jobs.submit",
                lambda: self._send_json(202, self.service.submit_job(self._read_json())),
            )
        else:
            self._dispatch("unmatched", self._not_found)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        path, _, _query = self.path.partition("?")
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/") :]

            def handle() -> None:
                doc = self.service.cancel_job(job_id)
                if doc is None:
                    self._send_json(
                        404, {"error": f"unknown job {job_id!r}", "status": 404}
                    )
                else:
                    self._send_json(200, doc)

            self._dispatch("jobs.cancel", handle)
        else:
            self._dispatch("unmatched", self._not_found)


class PlanningServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` owning one :class:`PlanningService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: PlanningService):
        super().__init__(address, _Handler)
        self.service = service


def create_server(
    service: Optional[PlanningService] = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    **service_kwargs,
) -> PlanningServer:
    """Bind a :class:`PlanningServer` on ``(host, port)``.

    ``port=0`` picks an ephemeral port (read it back from
    ``server.server_address``); extra keyword arguments construct the
    service when one is not supplied.
    """
    if service is None:
        service = PlanningService(**service_kwargs)
    elif service_kwargs:
        raise TypeError("pass either a service instance or its kwargs, not both")
    return PlanningServer((host, port), service)


def run_server(server: PlanningServer, install_signal_handlers: bool = True) -> None:
    """Serve until SIGTERM/SIGINT, then drain and release everything.

    The signal handler stops the accept loop from a helper thread
    (``shutdown()`` must not run on the serving thread); once the loop
    exits, in-flight jobs are drained to completion and the socket is
    closed — the graceful-shutdown contract of ``python -m repro serve``.
    """
    if install_signal_handlers:

        def _stop(signum, frame) -> None:
            _log.info("signal %d: shutting down", signum)
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.service.shutdown(drain=True)
        server.server_close()
