"""SLO load-test harness: drive a live planning service, grade the run.

:func:`run_loadtest` fires a configurable mix of request scenarios at a
running ``repro serve`` instance from ``concurrency`` worker threads
until a wall-clock ``duration_s`` (or a fixed ``total_requests``
budget) runs out:

* ``solve``  — cache-busting synchronous ``POST /v1/solve`` (every
  request draws a fresh seed, so each one reaches the worker pool);
* ``cached`` — fixed-seed replays of one request (after the first
  miss, pure cache hits — the cheap end of the latency spectrum);
* ``jobs``   — asynchronous ``POST /v1/jobs`` followed by status polls
  until the job leaves the queue (latency is submit → done).

Client-side latency is recorded into a private
:class:`~repro.obs.registry.MetricsRegistry` — one ``loadtest.request``
timer overall plus a ``loadtest.request[<op>]`` timer per scenario —
so the report's histograms (p50/p95/p99) come from the same machinery
the service itself uses.  Server-side work is measured by scraping
``GET /metrics?format=prometheus`` before and after the run and
subtracting (requests served, cache hits/misses, solver calls), plus
the final ``/healthz`` cache-effectiveness block.

SLOs: ``slo_p95_ms`` bounds the overall client-side p95,
``slo_error_rate`` bounds the failed-request fraction; violations are
listed in the report's ``slo`` block and flip ``slo.passed`` to
``False`` (the CLI exits 1).  A run that completes zero requests never
passes — an unreachable service must not look healthy.

A background sampler polls ``GET /healthz`` every
``queue_sample_interval_s`` during the run and the report's
``queue_depth`` block summarises the observed executor queue depth
(min/median/max over the samples) — back-pressure the latency
histograms alone can't show.  Note the sampler's own GETs land in the
``repro_service_http_requests_total`` before/after delta.
"""

from __future__ import annotations

import json
import random
import statistics
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.loadtest.promscrape import counter_delta, parse_prometheus_text
from repro.obs.registry import MetricsRegistry

__all__ = [
    "LOADTEST_FORMAT",
    "LOADTEST_VERSION",
    "LoadTestConfig",
    "parse_mix",
    "run_loadtest",
    "render_report",
]

LOADTEST_FORMAT = "repro.loadtest"
LOADTEST_VERSION = 1

#: The request scenarios a mix may weight.
OPERATIONS = ("solve", "cached", "jobs")

#: Job states that end a poll loop.
_TERMINAL_JOB_STATES = frozenset({"done", "failed", "cancelled", "timeout"})

#: Server-side counters reported as before/after deltas.
_SERVER_COUNTERS = (
    "repro_service_http_requests_total",
    "repro_service_cache_hit_total",
    "repro_service_cache_miss_total",
    "repro_service_jobs_submitted_total",
    "repro_knapsack_calls_total",
    "repro_matching_calls_total",
)


def parse_mix(spec: str) -> Dict[str, int]:
    """Parse ``"solve=2,cached=2,jobs=1"`` into weight mapping.

    Unknown operations and non-positive totals are errors; an omitted
    operation simply gets weight 0.
    """
    weights: Dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, raw = part.partition("=")
        name = name.strip()
        if name not in OPERATIONS:
            raise ValueError(
                f"unknown mix operation {name!r} (choices: {', '.join(OPERATIONS)})"
            )
        try:
            weight = int(raw.strip()) if eq else 1
        except ValueError:
            raise ValueError(f"mix weight for {name!r} must be an integer: {raw!r}")
        if weight < 0:
            raise ValueError(f"mix weight for {name!r} must be >= 0, got {weight}")
        weights[name] = weight
    if sum(weights.values()) <= 0:
        raise ValueError(f"mix {spec!r} selects no operations")
    return weights


@dataclass(frozen=True)
class LoadTestConfig:
    """One load-test run's shape (see the module docstring)."""

    base_url: str = "http://127.0.0.1:8080"
    concurrency: int = 4
    duration_s: float = 10.0
    total_requests: Optional[int] = None
    mix: Mapping[str, int] = field(
        default_factory=lambda: {"solve": 2, "cached": 2, "jobs": 1}
    )
    num_sensors: int = 30
    path_length: float = 1500.0
    algorithm: str = "Offline_Appro"
    request_timeout: float = 30.0
    slo_p95_ms: Optional[float] = None
    slo_error_rate: Optional[float] = None
    seed: int = 1
    poll_interval_s: float = 0.02
    queue_sample_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.total_requests is not None and self.total_requests < 1:
            raise ValueError(
                f"total_requests must be >= 1, got {self.total_requests}"
            )
        if not any(self.mix.get(op, 0) > 0 for op in OPERATIONS):
            raise ValueError("mix selects no operations")
        if self.queue_sample_interval_s <= 0:
            raise ValueError(
                "queue_sample_interval_s must be > 0, "
                f"got {self.queue_sample_interval_s}"
            )


class _Client:
    """Thin JSON-over-HTTP client (stdlib urllib; no sessions needed —
    the service speaks HTTP/1.1 but each request here is independent)."""

    def __init__(self, base_url: str, timeout: float) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[Optional[int], object]:
        """Returns ``(status, decoded body)``; ``status=None`` on a
        transport error (connect refused, timeout), with the error
        string as the body."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method
        )
        if data is not None:
            req.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                raw = resp.read()
                status = resp.status
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            status = exc.code
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            return None, str(exc)
        try:
            return status, json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            return status, raw.decode("utf-8", "replace")

    def scrape_prometheus(self) -> Optional[Dict]:
        status, body = self.request("GET", "/metrics?format=prometheus")
        if status != 200 or not isinstance(body, str):
            return None
        return parse_prometheus_text(body)

    def healthz(self) -> Optional[dict]:
        status, body = self.request("GET", "/healthz")
        return body if status == 200 and isinstance(body, dict) else None


class _RunState:
    """Shared admission control: budget claims and error tallies."""

    def __init__(self, config: LoadTestConfig) -> None:
        self._lock = threading.Lock()
        self._issued = 0
        self._seed_counter = 0
        self._seed_base = (1 + config.seed) * 1_000_000
        self._budget = config.total_requests
        self.deadline = time.monotonic() + config.duration_s
        self.errors: List[Dict[str, object]] = []

    def claim(self) -> bool:
        """Claim one request from the budget; ``False`` ends the worker."""
        if time.monotonic() >= self.deadline:
            return False
        with self._lock:
            if self._budget is not None and self._issued >= self._budget:
                return False
            self._issued += 1
            return True

    def fresh_seed(self) -> int:
        """A run-unique seed, so ``solve`` requests never hit the cache.

        The base is derived from ``config.seed`` so two runs against the
        same long-lived service don't replay each other's seeds (which
        would silently turn cache-busting requests into cache hits)."""
        with self._lock:
            self._seed_counter += 1
            return self._seed_base + self._seed_counter

    def record_error(self, op: str, status: Optional[int], detail: object) -> None:
        with self._lock:
            if len(self.errors) < 50:  # keep the report bounded
                self.errors.append(
                    {"op": op, "status": status, "detail": str(detail)[:300]}
                )


def _solve_body(config: LoadTestConfig, seed: int) -> dict:
    return {
        "scenario": {
            "num_sensors": config.num_sensors,
            "path_length": config.path_length,
        },
        "algorithm": config.algorithm,
        "seed": seed,
    }


def _run_op(
    op: str,
    client: _Client,
    config: LoadTestConfig,
    state: _RunState,
    registry: MetricsRegistry,
) -> None:
    """Issue one request scenario, timing and grading it."""
    t0 = time.perf_counter()
    ok = False
    status: Optional[int] = None
    if op == "solve" or op == "cached":
        seed = config.seed if op == "cached" else state.fresh_seed()
        status, body = client.request("POST", "/v1/solve", _solve_body(config, seed))
        ok = status == 200
        if not ok:
            state.record_error(op, status, body)
    elif op == "jobs":
        status, body = client.request(
            "POST", "/v1/jobs", _solve_body(config, state.fresh_seed())
        )
        if status == 202 and isinstance(body, dict) and "job_id" in body:
            job_id = body["job_id"]
            while time.monotonic() < state.deadline + config.request_timeout:
                status, body = client.request("GET", f"/v1/jobs/{job_id}")
                if status != 200 or not isinstance(body, dict):
                    break
                if body.get("state") in _TERMINAL_JOB_STATES:
                    break
                time.sleep(config.poll_interval_s)
            ok = (
                status == 200
                and isinstance(body, dict)
                and body.get("state") == "done"
            )
            if not ok:
                state.record_error(op, status, body)
        else:
            state.record_error(op, status, body)
    else:  # pragma: no cover - guarded by parse_mix/__post_init__
        raise AssertionError(f"unknown operation {op!r}")
    elapsed = time.perf_counter() - t0
    registry.observe("loadtest.request", elapsed)
    registry.observe(f"loadtest.request[{op}]", elapsed)
    registry.inc("loadtest.requests")
    registry.inc(f"loadtest.ops[{op}]")
    if status is not None:
        registry.inc(f"loadtest.status[{status}]")
    if not ok:
        registry.inc("loadtest.errors")


def _worker(
    index: int,
    client: _Client,
    config: LoadTestConfig,
    state: _RunState,
    registry: MetricsRegistry,
) -> None:
    rng = random.Random(f"{config.seed}:{index}")
    ops = [op for op in OPERATIONS if config.mix.get(op, 0) > 0]
    weights = [config.mix[op] for op in ops]
    while state.claim():
        op = rng.choices(ops, weights=weights)[0]
        _run_op(op, client, config, state, registry)


def _sample_queue_depth(
    client: _Client,
    interval_s: float,
    stop: threading.Event,
    samples: List[float],
) -> None:
    """Poll ``/healthz`` until ``stop`` is set, appending each observed
    ``queue_depth``.  Samples first, then waits — so even a run shorter
    than one interval records at least one sample."""
    while True:
        healthz = client.healthz()
        if healthz is not None and isinstance(
            healthz.get("queue_depth"), (int, float)
        ):
            samples.append(float(healthz["queue_depth"]))
        if stop.wait(interval_s):
            return


def _queue_depth_section(samples: List[float]) -> Dict[str, object]:
    if not samples:
        return {"samples": 0}
    return {
        "samples": len(samples),
        "min": min(samples),
        "median": statistics.median(samples),
        "max": max(samples),
    }


def _latency_ms(registry: MetricsRegistry, name: str) -> Dict[str, float]:
    stats = registry.timer_stats(name)
    return {
        "count": stats.count,
        "mean_ms": stats.mean * 1e3,
        "p50_ms": stats.p50 * 1e3,
        "p95_ms": stats.p95 * 1e3,
        "p99_ms": stats.p99 * 1e3,
        "max_ms": stats.max * 1e3,
    }


def _server_section(
    client: _Client, before: Optional[Dict], after: Optional[Dict]
) -> Dict[str, object]:
    if before is None or after is None:
        return {
            "scraped": False,
            "detail": "prometheus scrape unavailable (before or after failed)",
        }
    deltas = {
        name: counter_delta(before, after, name) for name in _SERVER_COUNTERS
    }
    hits = deltas.get("repro_service_cache_hit_total") or 0.0
    misses = deltas.get("repro_service_cache_miss_total") or 0.0
    lookups = hits + misses
    section: Dict[str, object] = {
        "scraped": True,
        "delta": deltas,
        "cache_hit_rate": hits / lookups if lookups else 0.0,
    }
    healthz = client.healthz()
    if healthz is not None:
        section["healthz_cache"] = healthz.get("cache")
    return section


def run_loadtest(
    config: LoadTestConfig, registry: Optional[MetricsRegistry] = None
) -> Dict[str, object]:
    """Run one load test; returns the JSON-ready report document.

    ``registry`` overrides the private client-side metrics registry
    (tests use this to inspect raw histograms).
    """
    registry = registry if registry is not None else MetricsRegistry()
    client = _Client(config.base_url, config.request_timeout)
    state = _RunState(config)
    before = client.scrape_prometheus()

    queue_samples: List[float] = []
    sampler_stop = threading.Event()
    sampler = threading.Thread(
        target=_sample_queue_depth,
        args=(client, config.queue_sample_interval_s, sampler_stop, queue_samples),
        name="loadtest-queue-sampler",
        daemon=True,
    )

    t0 = time.perf_counter()
    sampler.start()
    threads = [
        threading.Thread(
            target=_worker,
            args=(index, client, config, state, registry),
            name=f"loadtest-{index}",
            daemon=True,
        )
        for index in range(config.concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        # Workers self-terminate at the deadline/budget; the join bound
        # only guards against a wedged socket outliving the run.
        thread.join(timeout=config.duration_s + config.request_timeout * 2)
    sampler_stop.set()
    sampler.join(timeout=config.request_timeout + 1.0)
    elapsed_s = time.perf_counter() - t0

    after = client.scrape_prometheus()
    requests = int(registry.counter("loadtest.requests"))
    errors = int(registry.counter("loadtest.errors"))
    error_rate = errors / requests if requests else 0.0
    overall = _latency_ms(registry, "loadtest.request")

    violations: List[str] = []
    if requests == 0:
        violations.append("no requests completed (service unreachable?)")
    if config.slo_p95_ms is not None and overall["p95_ms"] > config.slo_p95_ms:
        violations.append(
            f"p95 {overall['p95_ms']:.1f} ms > SLO {config.slo_p95_ms:g} ms"
        )
    if config.slo_error_rate is not None and error_rate > config.slo_error_rate:
        violations.append(
            f"error rate {error_rate:.2%} > SLO {config.slo_error_rate:.2%}"
        )

    status_counts = {
        name[len("loadtest.status[") : -1]: int(value)
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith("loadtest.status[")
    }
    return {
        "format": LOADTEST_FORMAT,
        "version": LOADTEST_VERSION,
        "config": {
            "base_url": config.base_url,
            "concurrency": config.concurrency,
            "duration_s": config.duration_s,
            "total_requests": config.total_requests,
            "mix": dict(config.mix),
            "num_sensors": config.num_sensors,
            "path_length": config.path_length,
            "algorithm": config.algorithm,
            "seed": config.seed,
        },
        "elapsed_s": elapsed_s,
        "requests": requests,
        "errors": errors,
        "error_rate": error_rate,
        "throughput_rps": requests / elapsed_s if elapsed_s > 0 else 0.0,
        "status_counts": status_counts,
        "latency_ms": {
            "overall": overall,
            "per_op": {
                op: _latency_ms(registry, f"loadtest.request[{op}]")
                for op in OPERATIONS
                if config.mix.get(op, 0) > 0
            },
        },
        "server": _server_section(client, before, after),
        "queue_depth": _queue_depth_section(queue_samples),
        "error_samples": state.errors,
        "slo": {
            "p95_ms": config.slo_p95_ms,
            "error_rate": config.slo_error_rate,
            "violations": violations,
            "passed": not violations,
        },
    }


def render_report(report: Mapping) -> str:
    """Human-readable summary of one :func:`run_loadtest` report."""
    config = report["config"]
    lines = [
        f"loadtest against {config['base_url']} "
        f"(concurrency={config['concurrency']}, mix={config['mix']})",
        f"{report['requests']} requests in {report['elapsed_s']:.1f} s "
        f"({report['throughput_rps']:.1f} rps), "
        f"{report['errors']} errors ({report['error_rate']:.2%})",
        "",
        f"{'op':<10} {'count':>7} {'mean ms':>9} {'p50 ms':>9} "
        f"{'p95 ms':>9} {'p99 ms':>9} {'max ms':>9}",
    ]

    def row(name: str, stats: Mapping) -> str:
        return (
            f"{name:<10} {stats['count']:>7} {stats['mean_ms']:>9.1f} "
            f"{stats['p50_ms']:>9.1f} {stats['p95_ms']:>9.1f} "
            f"{stats['p99_ms']:>9.1f} {stats['max_ms']:>9.1f}"
        )

    lines.append(row("overall", report["latency_ms"]["overall"]))
    for op, stats in sorted(report["latency_ms"]["per_op"].items()):
        lines.append(row(op, stats))

    server = report["server"]
    lines.append("")
    if server.get("scraped"):
        delta = server["delta"]
        lines.append(
            "server: "
            f"{delta.get('repro_service_http_requests_total') or 0:.0f} requests, "
            f"cache hit-rate {server['cache_hit_rate']:.1%} "
            f"(+{delta.get('repro_service_cache_hit_total') or 0:.0f} hits / "
            f"+{delta.get('repro_service_cache_miss_total') or 0:.0f} misses), "
            f"{delta.get('repro_knapsack_calls_total') or 0:.0f} knapsack calls"
        )
        if server.get("healthz_cache"):
            cache = server["healthz_cache"]
            lines.append(
                f"server cache (lifetime): {cache.get('hits', 0)} hits / "
                f"{cache.get('misses', 0)} misses "
                f"(rate {cache.get('hit_rate', 0.0):.1%}), "
                f"{cache.get('entries', 0)}/{cache.get('max_entries', 0)} entries"
            )
    else:
        lines.append(f"server: {server.get('detail', 'not scraped')}")

    depth = report.get("queue_depth") or {}
    if depth.get("samples"):
        lines.append(
            f"server queue depth: min {depth['min']:g} / "
            f"median {depth['median']:g} / max {depth['max']:g} "
            f"({depth['samples']} samples)"
        )

    slo = report["slo"]
    lines.append("")
    if slo["p95_ms"] is not None or slo["error_rate"] is not None:
        for violation in slo["violations"]:
            lines.append(f"SLO VIOLATION: {violation}")
        lines.append(f"SLO verdict: {'PASS' if slo['passed'] else 'FAIL'}")
    else:
        lines.append("no SLOs asserted (pass --slo-p95-ms / --slo-error-rate)")
    return "\n".join(lines)
