"""The ``service`` workload: open-loop HTTP traffic against
``python -m repro serve --workers 1``.

One generator process (this one) sends ``POST /v1/solve`` requests on a
seed-derived Poisson schedule over at most two persistent connections.
Each request is timed from when it was *due*, so a stall that delays
later requests counts against them.  The mix is fresh-seed solves of one
multi-rate scenario with one algorithm (one in ten certified)
beside replays of a small hot set that fits the result cache.

Phases, in order:

* ``setup`` — spawn the server, wait for ``/healthz``, warm up the
  fresh, certified and cached paths; done several times, the median is
  ``setup_s``;
* ``nominal`` — a Poisson schedule at the nominal rate: ``solve_p50_ms``
  and the recorded tail come from its fresh solves;
* ``saturate`` — bursts of fresh solves due far faster than one worker
  serves them, so the worker never idles; one over the median gap
  between successive answers is the service's ``tours_per_s``.  The
  bursts alternate with stretches of the nominal schedule.

The traced run sends one nominal phase instead.  It joins every
request's ``X-Request-Id`` with its ``--access-log`` line, takes the
before/after deltas of ``/metrics``, and afterwards replays each fresh
payload in this process through the same library calls the server and
worker make, twice: untraced, and traced with a span around each call.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import inputs
import metrics
import stats
from spans import SpanRecorder, Tracer

#: Nominal phase: 4 fresh solves per second keep the one worker about
#: 40% busy, with 3 cache replays per second beside them.  A busier
#: worker queues more; an idler one starts each solve cold, and on a
#: shared VM that made the median swing by a quarter from run to run.
NOMINAL_RATE = 7.0
NOMINAL_FRESH_SHARE = 4.0 / 7.0
#: Share of ``--seconds`` the nominal phase is scheduled to last.
NOMINAL_SHARE = 0.8
#: Saturating phase: fresh solves only, due far faster than one worker
#: serves them, so the worker never idles; this many per ``--seconds``.
SATURATE_RATE = 200.0
SATURATE_PER_SECOND = 1.6
BURSTS = 5
#: Hot-set entries replayed from the cache (the server caches 128).
HOT_SET = 4
CONNECTIONS = 2
WORKERS = 1
SETUP_REPEATS = 3
#: The run is invalid when the generator itself, with a free connection,
#: sent requests later than this at the 99th percentile.
LAG_LIMIT_MS = 25.0
#: A phase that has not finished this long after its last due time failed.
PHASE_TIMEOUT_S = 90.0
#: Worker-side timers the executor merges into ``/metrics``: a fresh
#: solve's ``run_tour``, LP bound and certificate.  The worker does not
#: time its scenario and instance build.
WORKER_TIMERS = ("tour.total", "lp.dcmp_bound", "verify.certify")


class Server:
    """One ``repro serve`` process, its port, and its access log."""

    def __init__(self, root: Path, out_dir: Path, tag: str) -> None:
        self.access_log = out_dir / f"access-{tag}.log"
        if self.access_log.exists():
            self.access_log.unlink()
        tmp = out_dir / "tmp"
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(tmp))
        self._stderr = open(out_dir / f"server-{tag}.err", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--workers", str(WORKERS),
                "--access-log", str(self.access_log),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            start_new_session=True,
        )
        try:
            self.port = self._read_port(deadline=time.monotonic() + 60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        buffer = b""
        try:
            while b"\n" not in buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("server did not report a port within 60 s")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(f"server exited early; see {self._stderr.name}")
                buffer += chunk
        finally:
            selector.close()
        match = re.search(rb"http://[^:\s]+:(\d+)", buffer)
        if match is None:
            raise RuntimeError(f"unexpected server banner {buffer!r}")
        return int(match.group(1))

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                status, _ = request(self.port, "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.02)

    def worker_pids(self) -> List[int]:
        return stats.child_pids(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server and its worker processes."""
        return sum(
            stats.process_peak_rss_mb(pid) for pid in [self.proc.pid, *self.worker_pids()]
        )

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then make sure nothing
        of its process group is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def request(port: int, method: str, path: str, body: Optional[bytes] = None,
            request_id: Optional[str] = None) -> Tuple[int, bytes]:
    """One request on a fresh connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        return _send(conn, method, path, body, request_id)
    finally:
        conn.close()


def _send(conn, method, path, body=None, request_id=None) -> Tuple[int, bytes]:
    headers = {"Content-Type": "application/json"}
    if request_id is not None:
        headers["X-Request-Id"] = request_id
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def metrics_snapshot(port: int) -> Dict:
    status, body = request(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    return json.loads(body)


class Outcome:
    """One sent request: when it was due, sent and answered."""

    __slots__ = ("request", "due", "sent", "done", "status", "body", "error", "waited")

    def __init__(self, request, due, sent, done, status, body, error, waited):
        self.request = request
        self.due = due
        self.sent = sent
        self.done = done
        self.status = status
        self.body = body
        self.error = error
        # True when a connection was free before the request was due, so
        # any lateness is the generator's own.
        self.waited = waited

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        return self.done - self.due


def run_phase(port: int, schedule: List[inputs.Request]) -> List[Outcome]:
    """Send ``schedule`` open-loop over ``CONNECTIONS`` persistent
    connections; each connection takes the next request due."""
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    crashed: List[BaseException] = []
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    start = time.perf_counter() + 0.05

    def connection() -> None:
        try:
            send_all()
        except BaseException as exc:  # re-raised by run_phase on the main thread
            crashed.append(exc)

    def send_all() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=PHASE_TIMEOUT_S)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                req = schedule[index]
                due = start + req.due
                waited = time.perf_counter() < due
                if waited:
                    time.sleep(max(0.0, due - time.perf_counter()))
                sent = time.perf_counter()
                try:
                    status, body = _send(conn, "POST", "/v1/solve", req.body, req.request_id)
                    error = None
                except (OSError, http.client.HTTPException) as exc:
                    status, body, error = None, b"", f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=PHASE_TIMEOUT_S)
                outcomes[index] = Outcome(
                    req, due, sent, time.perf_counter(), status, body, error, waited
                )
        finally:
            conn.close()

    threads = [threading.Thread(target=connection, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + (schedule[-1].due if schedule else 0.0) + PHASE_TIMEOUT_S
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load phase did not finish in time")
    if crashed:
        raise RuntimeError(f"load generator connection failed: {crashed[0]!r}")
    return outcomes  # type: ignore[return-value]


def generator_lag_ms(outcomes: List[Outcome]) -> float:
    """p99 lateness of requests the generator sent with a free
    connection: the generator's own delay, not the server's."""
    lags = [(o.sent - o.due) * 1e3 for o in outcomes if o.waited]
    return stats.percentile(lags, 99) if lags else 0.0


class ServiceRun:
    """What one run of the service workload measured."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self.spans: Optional[SpanRecorder] = None
        self.invalid: Optional[str] = None
        self.fresh_bits: List[float] = []

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.failures))


class _Checker:
    """Checks every answer against the program's own library, in this
    process, after the load has ended."""

    def __init__(self) -> None:
        from repro import ScenarioConfig
        from repro.core.allocation import Allocation
        import numpy as np

        self._config = ScenarioConfig
        self._allocation = Allocation
        self._np = np
        self.hot: Dict[bytes, Dict] = {}

    def fresh(self, outcome: Outcome, run: ServiceRun) -> Optional[Dict]:
        """A fresh answer must be feasible on the requested topology,
        hold the bits it reports, and carry a passing certificate when
        one was asked for."""
        label = outcome.request.request_id
        if not outcome.ok:
            run.failures.append(f"{label}: status {outcome.status} {outcome.error or ''}")
            return None
        asked = outcome.request.doc
        doc = json.loads(outcome.body)
        try:
            if doc.get("cached") is not False or doc["seed"] != asked["seed"]:
                raise ValueError("answer is not a fresh solve of the requested seed")
            scenario = self._config.from_dict(doc["scenario"]).build(seed=doc["seed"])
            instance = scenario.instance()
            allocation = self._allocation(self._np.asarray(doc["schedule"], dtype=self._np.int64))
            allocation.check_feasible(instance)
            if allocation.collected_bits(instance) != doc["collected_bits"]:
                raise ValueError("reported bits differ from the schedule's bits")
            if asked.get("certify") and doc.get("certificate", {}).get("verdict") != "pass":
                raise ValueError("certificate did not pass")
        except (ValueError, KeyError, TypeError) as exc:
            run.failures.append(f"{label}: {exc}")
            return None
        return doc

    def cached(self, outcome: Outcome, run: ServiceRun) -> None:
        """A replay must come from the cache and equal the stored solve."""
        label = outcome.request.request_id
        if not outcome.ok:
            run.failures.append(f"{label}: status {outcome.status} {outcome.error or ''}")
            return
        doc = json.loads(outcome.body)
        reference = self.hot[outcome.request.body]
        if doc.get("cached") is not True or any(
            doc.get(key) != reference[key] for key in ("collected_bits", "schedule", "seed")
        ):
            run.failures.append(f"{label}: replay differs from the cached solve")

    def phase(self, outcomes: List[Outcome], run: ServiceRun) -> List[Tuple[Outcome, Dict]]:
        run.attempted += len(outcomes)
        fresh = []
        for outcome in outcomes:
            if outcome.request.kind == "fresh":
                doc = self.fresh(outcome, run)
                run.fresh_bits.append(float("nan") if doc is None else doc["collected_bits"])
                if doc is not None:
                    fresh.append((outcome, doc))
            else:
                self.cached(outcome, run)
        return fresh


def _start(
    root: Path, out_dir: Path, tag: str, stream: inputs.ServiceInputs
) -> Tuple[Server, float]:
    """Spawn a server and warm each code path; returns it and the time
    from spawn to warm."""
    started = time.perf_counter()
    server = Server(root, out_dir, tag)
    try:
        server.wait_healthy()
        warm_ups = (stream.hot_bodies[0], inputs.solve_body(0, certify=True), stream.hot_bodies[0])
        for body in warm_ups:
            status, answer = request(server.port, "POST", "/v1/solve", body)
            if status != 200:
                raise RuntimeError(f"warm-up solve answered {status}: {answer[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _load_hot_set(server: Server, stream: inputs.ServiceInputs, checker: _Checker) -> None:
    for body in stream.hot_bodies:
        status, answer = request(server.port, "POST", "/v1/solve", body)
        if status != 200:
            raise RuntimeError(f"hot-set solve answered {status}")
        checker.hot[body] = json.loads(answer)


def _check_sizing(server: Server) -> None:
    """The load must not outnumber the cores, and the server must run
    exactly the one worker the workload is sized for."""
    cores = os.cpu_count() or 1
    if CONNECTIONS > cores:
        raise RuntimeError(f"{CONNECTIONS} connections exceed {cores} cores")
    workers = server.worker_pids()
    if len(workers) != WORKERS:
        raise RuntimeError(f"server runs {len(workers)} worker processes, expected {WORKERS}")


def run(root: Path, out_dir: Path, seed: int, seconds: float, trace: bool) -> ServiceRun:
    result = ServiceRun()
    stream = inputs.ServiceInputs(seed, HOT_SET)
    checker = _Checker()
    setups = []
    server = None
    try:
        for attempt in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, elapsed = _start(root, out_dir, f"s{seed}-{attempt}", stream)
            setups.append(elapsed)
        _check_sizing(server)
        _load_hot_set(server, stream, checker)
        nominal_count = max(
            4 * stats.TAIL_BEYOND, round(NOMINAL_RATE * NOMINAL_SHARE * seconds)
        )
        if trace:
            _run_traced(result, server, stream, checker, nominal_count)
        else:
            _run_plain(result, server, stream, checker, nominal_count, seconds)
            result.metrics["setup_s"] = stats.median(setups)
            result.metrics["peak_rss_mb"] = server.peak_rss_mb()
            result.info["setup_samples_s"] = setups
    finally:
        if server is not None:
            server.stop()
    bits = [b for b in result.fresh_bits if b == b]
    result.info["digest"] = stats.digest(result.fresh_bits)
    if not trace:
        result.metrics["collected_mb_per_tour"] = sum(bits) / len(bits) / 1e6 if bits else 0.0
    return result


def _latencies_ms(outcomes: List[Outcome], kind: str) -> List[float]:
    return [o.latency * 1e3 for o in outcomes if o.request.kind == kind and o.ok]


def _validate_generator(result: ServiceRun, phase: str, outcomes: List[Outcome]) -> float:
    lag = generator_lag_ms(outcomes)
    result.info[f"{phase}_generator_lag_p99_ms"] = lag
    if lag > LAG_LIMIT_MS:
        result.invalid = (
            f"generator fell behind its own schedule in {phase}: p99 lag {lag:.1f} ms "
            f"> {LAG_LIMIT_MS} ms with a free connection"
        )
    return lag


def _run_plain(result, server, stream, checker, nominal_count, seconds) -> None:
    """The nominal schedule in ``BURSTS`` consecutive stretches, each
    followed by a saturating burst of fresh solves.

    In a burst the worker never idles, so the gap between two successive
    answers is the time one solve occupies the service.  ``tours_per_s``
    is one over the median of those gaps, pooled over bursts spread across
    the run: a short fast or slow spell of a shared machine then moves
    a few gaps, not the result.
    """
    schedule = stream.schedule("nominal", nominal_count, NOMINAL_RATE, NOMINAL_FRESH_SHARE)
    burst_size = max(3, round(SATURATE_PER_SECOND * seconds / BURSTS))
    nominal: List[Outcome] = []
    gaps: List[float] = []
    for k in range(BURSTS):
        stretch = schedule[k * len(schedule) // BURSTS : (k + 1) * len(schedule) // BURSTS]
        offset = stretch[0].due
        nominal += run_phase(server.port, [replace(r, due=r.due - offset) for r in stretch])
        burst = run_phase(
            server.port, stream.schedule(f"saturate-{k}", burst_size, SATURATE_RATE, 1.0)
        )
        checker.phase(burst, result)
        answered = sorted(o.done for o in burst if o.ok)
        gaps += [b - a for a, b in zip(answered, answered[1:])]
    _validate_generator(result, "nominal", nominal)
    checker.phase(nominal, result)

    fresh = _latencies_ms(nominal, "fresh")
    tail_value, tail_pct, samples = stats.tail(fresh)
    result.metrics.update(solve_p50_ms=stats.median(fresh), tours_per_s=1.0 / stats.median(gaps))
    cached = _latencies_ms(nominal, "cached")
    result.info.update(
        solve_tail_ms=tail_value,
        tail_percentile=round(tail_pct, 2),
        latency_samples=samples,
        cached_samples=len(cached),
        cached_p50_ms=stats.median(cached) if cached else None,
        saturate_gaps=len(gaps),
    )


def _run_traced(result, server, stream, checker, nominal_count) -> None:
    before = metrics_snapshot(server.port)
    traced = run_phase(
        server.port, stream.schedule("traced", nominal_count, NOMINAL_RATE, NOMINAL_FRESH_SHARE)
    )
    after = metrics_snapshot(server.port)
    lag = _validate_generator(result, "traced", traced)
    fresh = checker.phase(traced, result)
    access = _access_lines(server.access_log, {o.request.request_id for o in traced})

    recorder = SpanRecorder()
    pairs, plain_wall, traced_wall = _replay(recorder, fresh, result)
    result.spans = recorder
    ops = len(fresh)
    if ops == 0:
        raise RuntimeError("no fresh solve succeeded in the traced phase")
    counters = {
        name: value - before["counters"].get(name, 0.0)
        for name, value in after["counters"].items()
    }
    layer = metrics.layer_metrics(recorder.self_times(), counters, ops)
    solve_s, solves = _timer_delta(before, after, "service.solve")
    wait_ms = solve_s / solves * 1e3 if solves else 0.0
    # The worker's own timers, taken under the same load as the wait,
    # plus the scenario and instance build it does not time, from the
    # replay.
    worker_s = sum(_timer_delta(before, after, name)[0] for name in WORKER_TIMERS)
    worker_ms = (
        worker_s / solves * 1e3 + layer["sim.scenario.build_ms"] + layer["core.instance.build_ms"]
        if solves
        else 0.0
    )
    hits = counters.get("service.cache.hit", 0.0)
    misses = counters.get("service.cache.miss", 0.0)
    cached_server = [
        access[o.request.request_id]["duration_ms"]
        for o in traced
        if o.request.kind == "cached" and o.request.request_id in access
    ]
    fresh_server = [
        access[o.request.request_id]["duration_ms"]
        for o, _ in fresh
        if o.request.request_id in access
    ]
    server_fresh_ms = sum(fresh_server) / len(fresh_server) if fresh_server else 0.0
    layer.update(
        {
            # Set by the workload's shape: one build per replayed solve.
            "sim.scenario.builds": sum(
                1 for s in recorder.spans if s[0] == "sim.scenario.build"
            ) / ops,
            "core.instance.pairs": pairs / ops,
            "service.worker.compute_ms": worker_ms,
            "service.executor.wait_ms": wait_ms,
            "service.executor.queue_ipc_ms": wait_ms - worker_ms,
            "service.executor.rejected": counters.get("service.rejected", 0.0) / len(traced),
            "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.server.request_ms": stats.median(cached_server) if cached_server else 0.0,
            "service.cached_p50_ms": stats.median(_latencies_ms(traced, "cached")),
            "loadgen.lag_p99_ms": lag,
            # The served path is never traced; the spans are the replay's.
            "trace.overhead_share": traced_wall / plain_wall - 1.0,
            "trace.layer_sum_share": (
                layer["service.schema.validate_ms"] + wait_ms + layer["service.encode_ms"]
            ) / server_fresh_ms if server_fresh_ms else 0.0,
        }
    )
    result.metrics = layer
    result.info.update(
        access_log_joined=len(access),
        traced_requests=len(traced),
        server_solves=solves,
        server_fresh_request_ms=server_fresh_ms,
        replay_untraced_ms=plain_wall / ops * 1e3,
        replay_traced_ms=traced_wall / ops * 1e3,
    )


def _timer_delta(before: Dict, after: Dict, name: str) -> Tuple[float, int]:
    b = before["timers"].get(name, {"total_s": 0.0, "count": 0})
    a = after["timers"].get(name, {"total_s": 0.0, "count": 0})
    return a["total_s"] - b["total_s"], a["count"] - b["count"]


def _access_lines(path: Path, request_ids: set) -> Dict[str, Dict]:
    """Access-log lines of the given requests, by request id."""
    joined = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if doc.get("request_id") in request_ids and doc.get("path") == "/v1/solve":
                joined[doc["request_id"]] = doc
    return joined


def _replay(
    recorder: SpanRecorder, fresh: List[Tuple[Outcome, Dict]], result: ServiceRun
) -> Tuple[int, float, float]:
    """Run each fresh payload through the calls the server and its worker
    make, twice: untraced, and traced with a span around each call, in
    alternating order.  Both must collect the bits the server answered.
    Returns the instances' (sensor, slot) pair total and the
    untraced and traced replays' wall times."""
    pairs = 0
    walls = {False: 0.0, True: 0.0}
    for index, (outcome, answer) in enumerate(fresh):
        for tracing in (False, True) if index % 2 == 0 else (True, False):
            started = time.perf_counter()
            instance, failure = _replay_one(Tracer(recorder if tracing else None), outcome, answer)
            walls[tracing] += time.perf_counter() - started
            if failure:
                result.failures.append(f"{outcome.request.request_id}: in-process replay {failure}")
        pairs += sum(s.num_slots for s in instance.sensors)
    return pairs, walls[False], walls[True]


def _replay_one(tracer: Tracer, outcome: Outcome, answer: Dict):
    """One replay of a fresh payload; returns its instance and what went
    wrong, if anything."""
    from repro import ScenarioConfig, certify, dcmp_lp_upper_bound, get_algorithm, run_tour
    from repro.service.schema import parse_solve_request

    import tours

    op = tracer.open("bench.op", outcome.request.request_id)
    span = tracer.open("service.schema.validate")
    parsed = parse_solve_request(outcome.request.doc)
    tracer.close(span)
    payload = parsed.payload()
    span = tracer.open("sim.scenario.build")
    scenario = ScenarioConfig.from_dict(payload["scenario"]).build(seed=payload["seed"])
    tracer.close(span)
    span = tracer.open("core.instance.build")
    instance = scenario.instance()
    tracer.close(span)
    span = tracer.open("core.lp.bound")
    bound = float(dcmp_lp_upper_bound(instance))
    tracer.close(span)
    before = tours.charges(scenario)
    span = tracer.open("sim.run_tour")
    tour = run_tour(scenario, get_algorithm(payload["algorithm"]), mutate=False, instance=instance)
    tracer.close(span)
    tracer.phases(span, tours.profile_phases(tour.profile, payload["algorithm"], mutated=False))
    unchanged = tours.charges(scenario) == before
    passed = True
    if payload.get("certify"):
        span = tracer.open("verify.certificate.certify")
        passed = certify(
            instance, tour.allocation, algorithm=payload["algorithm"], lp_bound_bits=bound
        ).passed
        tracer.close(span)
    span = tracer.open("service.encode")
    json.dumps(answer)
    tracer.close(span)
    tracer.close(op)
    if float(tour.collected_bits) != answer["collected_bits"]:
        return instance, "collected other bits than the server"
    if not passed:
        return instance, "certificate did not pass"
    if not unchanged:
        return instance, "changed a battery in a mutate=False tour"
    return instance, None
