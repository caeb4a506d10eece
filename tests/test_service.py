"""Planning-service tests: HTTP API, cache, executor, shutdown.

Covers the request lifecycle end to end: a live threaded server on an
ephemeral port (every registered algorithm solved over the wire), the
typed 400/404/429/504 errors, content-addressed caching with in-flight
coalescing, async submit/poll, graceful drain, and a real
``python -m repro serve`` subprocess surviving SIGTERM with in-flight
work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.service.executor as executor_module
from repro.obs import MetricsRegistry, configure_access_log
from repro.obs.promexpo import PROMETHEUS_CONTENT_TYPE
from repro.service import (
    JobExecutor,
    JobState,
    JobTimeoutError,
    PlanningService,
    QueueFullError,
    RequestError,
    ResultCache,
    create_server,
    parse_solve_request,
    solve_cache_key,
)
from repro.service.worker import (
    WORKER_METRICS_KEY,
    solve_batch_payload,
    solve_payload,
)
from repro.sim.algorithms import ALGORITHMS, requires_fixed_power

SMALL = {"num_sensors": 30, "path_length": 1500.0}
BIG = {"num_sensors": 300}


def _request(port, path, method="GET", doc=None, raw=None, timeout=120):
    data = None
    if raw is not None:
        data = raw
    elif doc is not None:
        data = json.dumps(doc).encode("utf-8")
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _solve_body(scenario=SMALL, algorithm="Offline_Appro", seed=7, **extra):
    return {"scenario": dict(scenario), "algorithm": algorithm, "seed": seed, **extra}


def _raw_request(port, path, method="GET", doc=None, headers=None, timeout=120):
    """Like :func:`_request` but returns (status, headers, raw body bytes)."""
    data = json.dumps(doc).encode("utf-8") if doc is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers=dict(headers or {}),
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read()


# ----------------------------------------------------------------------
# picklable helpers for executor-level tests (must be module level)


def _sleep_echo(payload):
    time.sleep(payload.get("sleep", 0.2))
    return dict(payload)


# ----------------------------------------------------------------------


@contextlib.contextmanager
def _serving(**service_kwargs):
    """A live server on an ephemeral port around a new service with its
    own registry; yields ``(port, service)``, then drains the service."""
    service = PlanningService(registry=MetricsRegistry(), **service_kwargs)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1], service
    finally:
        server.shutdown()
        service.shutdown()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def served():
    """One live server + its service/registry, shared by the fast tests."""
    with _serving(workers=2, cache_size=64, request_timeout=120.0) as live:
        yield live


class TestEndpoints:
    def test_healthz(self, served):
        port, _ = served
        status, doc = _request(port, "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert set(doc) == {"status", "uptime_s", "queue", "cache"}
        assert set(doc["queue"]) == {"active", "max_queue", "tracked"}
        assert doc["queue"]["max_queue"] >= 1
        # Hit/miss totals live in the registry counters, not here.
        assert set(doc["cache"]) == {"entries", "max_entries"}
        assert doc["cache"]["max_entries"] == 64

    def test_algorithms_catalogue(self, served):
        port, _ = served
        status, doc = _request(port, "/v1/algorithms")
        assert status == 200
        names = [entry["name"] for entry in doc["algorithms"]]
        assert names == sorted(ALGORITHMS)
        by_name = {entry["name"]: entry for entry in doc["algorithms"]}
        assert by_name["Offline_MaxMatch"]["requires_fixed_power"] is True
        assert by_name["Offline_Appro"]["requires_fixed_power"] is False

    def test_unknown_route_is_404(self, served):
        port, _ = served
        assert _request(port, "/nope")[0] == 404
        assert _request(port, "/v1/solve", method="GET")[0] == 404

    def test_metrics_snapshot_shape(self, served):
        port, _ = served
        status, doc = _request(port, "/metrics")
        assert status == 200
        assert set(doc) == {"counters", "gauges", "timers"}


class TestSolve:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_solve_every_algorithm(self, served, name):
        port, _ = served
        scenario = dict(SMALL)
        if requires_fixed_power(name):
            scenario["fixed_power"] = 0.3
        status, doc = _request(
            port, "/v1/solve", "POST", _solve_body(scenario, algorithm=name)
        )
        assert status == 200, doc
        assert doc["algorithm"] == name
        assert doc["collected_megabits"] > 0
        assert 0 < doc["lp_bound_fraction"] <= 1.0 + 1e-9
        assert len(doc["schedule"]) == doc["num_slots"]
        assert doc["profile"]["solve_s"] >= 0

    def test_lowercase_alias_resolves(self, served):
        port, _ = served
        status, doc = _request(
            port, "/v1/solve", "POST", _solve_body(algorithm="offline_appro", seed=11)
        )
        assert status == 200
        assert doc["algorithm"] == "Offline_Appro"

    def test_certify_request_attaches_certificate(self, served):
        port, _ = served
        body = _solve_body(seed=31, certify=True)
        status, doc = _request(port, "/v1/solve", "POST", body)
        assert status == 200, doc
        cert = doc["certificate"]
        assert cert["format"] == "repro.certificate"
        assert cert["verdict"] == "pass"
        assert cert["algorithm"] == doc["algorithm"]
        check_names = {c["name"] for c in cert["checks"]}
        assert {"horizon", "windows", "slot_exclusivity", "budgets"} <= check_names
        # The certificate reuses the solver's LP bound rather than re-solving.
        assert cert["lp_fraction"] == pytest.approx(doc["lp_bound_fraction"])

    def test_certified_empty_network_passes(self, served):
        port, _ = served
        body = {"scenario": {"num_sensors": 0}, "certify": True}
        status, doc = _request(port, "/v1/solve", "POST", body)
        assert status == 200, doc
        cert = doc["certificate"]
        assert cert["verdict"] == "pass"
        (budgets,) = [c for c in cert["checks"] if c["name"] == "budgets"]
        assert budgets["slack"] is None and "no sensors" in budgets["detail"]

    def test_certify_and_plain_requests_cache_separately(self, served):
        port, _ = served
        plain = _solve_body(seed=32)
        status, doc = _request(port, "/v1/solve", "POST", plain)
        assert status == 200 and "certificate" not in doc
        status, doc = _request(port, "/v1/solve", "POST", dict(plain, certify=True))
        assert status == 200, doc
        assert doc["cached"] is False  # distinct cache key: no stale, cert-less hit
        assert "certificate" in doc

    def test_planner_request_end_to_end(self, served):
        port, _ = served
        body = _solve_body(seed=41, certify=True, planner={"kind": "plane_sweep"})
        status, doc = _request(port, "/v1/solve", "POST", body)
        assert status == 200, doc
        plan = doc["plan"]
        assert plan["kind"] == "plane_sweep"
        assert plan["num_sinks"] == 1
        assert plan["total_tour_length_m"] > 0
        # The echoed scenario carries the merged planner block.
        assert doc["scenario"]["planner"]["kind"] == "plane_sweep"
        # Certification runs unchanged on the designed tour.
        assert doc["certificate"]["verdict"] == "pass"

    def test_multi_sink_request_reports_sinks(self, served):
        port, _ = served
        body = _solve_body(
            seed=42, planner={"kind": "multi_sink", "num_sinks": 2}
        )
        status, doc = _request(port, "/v1/solve", "POST", body)
        assert status == 200, doc
        assert doc["plan"]["kind"] == "multi_sink"
        assert doc["plan"]["num_sinks"] >= 1
        assert len(doc["plan"]["tour_lengths_m"]) == doc["plan"]["num_sinks"]

    def test_planner_and_plain_requests_cache_separately(self, served):
        port, _ = served
        plain = _solve_body(seed=43)
        status, doc = _request(port, "/v1/solve", "POST", plain)
        assert status == 200 and "plan" not in doc
        status, doc = _request(
            port, "/v1/solve", "POST", dict(plain, planner={"kind": "fixed_line"})
        )
        assert status == 200, doc
        assert doc["cached"] is False  # planner extends the cache key
        assert doc["plan"]["kind"] == "fixed_line"

    def test_bad_planner_is_400_naming_the_key(self, served):
        port, _ = served
        body = _solve_body(planner={"kind": "plane_sweep", "spacing": 50.0})
        status, doc = _request(port, "/v1/solve", "POST", body)
        assert status == 400
        assert doc["field"] == "planner"
        assert "spacing" in doc["error"]

    def test_repeat_request_served_from_cache(self, served):
        port, service = served
        body = _solve_body(seed=21)
        first = _request(port, "/v1/solve", "POST", body)
        second = _request(port, "/v1/solve", "POST", body)
        assert first[0] == second[0] == 200
        assert first[1]["cached"] is False
        assert second[1]["cached"] is True
        assert second[1]["collected_bits"] == first[1]["collected_bits"]
        status, metrics = _request(port, "/metrics")
        assert metrics["counters"]["service.cache.hit"] >= 1
        assert service.registry.counter("service.cache.hit") >= 1

    def test_fresh_solve_stores_its_result_once(self, served, monkeypatch):
        """The job's ``on_result`` callback caches the result before the
        wait returns, so the request does not store it again."""
        _, service = served
        puts = []
        put = service.cache.put

        def counted(key, value):
            puts.append(key)
            put(key, value)

        monkeypatch.setattr(service.cache, "put", counted)
        body = _solve_body(seed=22)
        assert service.solve(body)["cached"] is False
        assert len(puts) == 1
        assert service.solve(body)["cached"] is True

    def test_concurrent_identical_requests_share_one_job(self, served):
        port, service = served
        before = service.registry.counter("service.jobs.submitted")
        body = _solve_body({"num_sensors": 150}, seed=33)
        results = []

        def hit():
            results.append(_request(port, "/v1/solve", "POST", body))

        threads = [threading.Thread(target=hit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [status for status, _ in results] == [200, 200]
        bits = {doc["collected_bits"] for _, doc in results}
        assert len(bits) == 1
        after = service.registry.counter("service.jobs.submitted")
        assert after - before == 1  # coalesced in flight (or cache hit)


class TestValidation:
    def test_malformed_json_is_400(self, served):
        port, _ = served
        status, doc = _request(port, "/v1/solve", "POST", raw=b"{not json")
        assert status == 400
        assert "malformed JSON" in doc["error"]

    def test_unknown_algorithm_400_lists_sorted_choices(self, served):
        port, _ = served
        status, doc = _request(
            port, "/v1/solve", "POST", _solve_body(algorithm="Nope")
        )
        assert status == 400
        assert doc["field"] == "algorithm"
        assert f"choose from {sorted(ALGORITHMS)}" in doc["error"]

    def test_unknown_scenario_field_is_400(self, served):
        port, _ = served
        status, doc = _request(
            port, "/v1/solve", "POST", {"scenario": {"bogus": 1}}
        )
        assert status == 400
        assert doc["field"] == "scenario"
        assert "bogus" in doc["error"]

    def test_out_of_range_sensors_is_400(self, served):
        port, _ = served
        status, doc = _request(
            port, "/v1/solve", "POST", {"scenario": {"num_sensors": -3}}
        )
        assert status == 400
        assert "num_sensors" in doc["error"]

    def test_maxmatch_without_fixed_power_is_400(self, served):
        port, _ = served
        status, doc = _request(
            port, "/v1/solve", "POST", _solve_body(algorithm="Online_MaxMatch")
        )
        assert status == 400
        assert "fixed-power special case" in doc["error"]
        assert "fixed_power" in doc["error"]

    def test_unknown_top_level_field_is_400(self, served):
        port, _ = served
        status, doc = _request(port, "/v1/solve", "POST", {"seeed": 1})
        assert status == 400
        assert "seeed" in doc["error"]

    def test_non_object_body_is_400(self, served):
        port, _ = served
        status, doc = _request(port, "/v1/solve", "POST", raw=b"[1, 2]")
        assert status == 400
        assert "JSON object" in doc["error"]


class TestAsyncJobs:
    def test_submit_poll_roundtrip(self, served):
        port, _ = served
        status, doc = _request(port, "/v1/jobs", "POST", _solve_body(seed=55))
        assert status == 202
        job_id = doc["job_id"]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, doc = _request(port, f"/v1/jobs/{job_id}")
            assert status == 200
            if doc["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert doc["state"] == "done"
        assert doc["error"] is None
        assert doc["result"]["collected_megabits"] > 0

    def test_cached_submit_returns_finished_job(self, served):
        port, _ = served
        body = _solve_body(seed=56)
        assert _request(port, "/v1/solve", "POST", body)[0] == 200
        status, doc = _request(port, "/v1/jobs", "POST", body)
        assert status == 202
        assert doc["cached"] is True
        status, doc = _request(port, f"/v1/jobs/{doc['job_id']}")
        assert doc["state"] == "done"
        assert doc["result"]["collected_megabits"] > 0

    def test_unknown_job_is_404(self, served):
        port, _ = served
        assert _request(port, "/v1/jobs/job-999999")[0] == 404
        assert _request(port, "/v1/jobs/job-999999", method="DELETE")[0] == 404

    @pytest.fixture()
    def one_worker_server(self):
        with _serving(workers=1, cache_size=16, request_timeout=120.0) as live:
            yield live

    def test_concurrent_jobs_against_one_worker(self, one_worker_server):
        port, service = one_worker_server
        bodies = [_solve_body(seed=seed) for seed in range(80, 88)]
        outcomes = [None] * len(bodies)

        def submit_and_poll(position):
            submitted = _request(port, "/v1/jobs", "POST", bodies[position])
            doc = submitted[1]
            deadline = time.monotonic() + 120
            while submitted[0] == 202 and time.monotonic() < deadline:
                doc = _request(port, f"/v1/jobs/{submitted[1]['job_id']}")[1]
                if doc["state"] not in ("pending", "running"):
                    break
                time.sleep(0.02)
            outcomes[position] = (submitted, doc)

        threads = [
            threading.Thread(target=submit_and_poll, args=(position,))
            for position in range(len(bodies))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=150)
        assert not any(t.is_alive() for t in threads)
        assert [submitted[0] for submitted, _ in outcomes] == [202] * len(bodies)
        assert [doc["state"] for _, doc in outcomes] == ["done"] * len(bodies)
        assert service.registry.counter("service.jobs.submitted") == len(bodies)
        # A poll reads "done" from the future before the executor's finish
        # bookkeeping (cache store, queue slot release) has run.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            health = _request(port, "/healthz")[1]
            if health["queue"]["active"] == 0:
                break
            time.sleep(0.02)
        assert health["queue"]["active"] == 0
        for body, (_, doc) in zip(bodies, outcomes):
            status, replay = _request(port, "/v1/solve", "POST", body)
            assert status == 200
            assert replay["cached"] is True
            assert replay["collected_bits"] == doc["result"]["collected_bits"]


class TestBackpressure:
    @pytest.fixture()
    def tiny_server(self):
        """workers=1, queue bound 1, 50 ms deadline — saturates easily."""
        # Leaving the block drains the straggler solve.
        with _serving(
            workers=1, cache_size=8, request_timeout=0.05, max_queue=1
        ) as live:
            yield live

    def test_timeout_504_then_queue_full_429(self, tiny_server):
        port, service = tiny_server
        status, doc = _request(port, "/v1/solve", "POST", _solve_body(BIG, seed=1))
        assert status == 504
        assert doc["status"] == 504
        assert "deadline" in doc["error"]
        assert service.registry.counter("service.timeout") >= 1
        # The timed-out solve still occupies the single queue slot.
        status, doc = _request(port, "/v1/jobs", "POST", _solve_body(BIG, seed=2))
        assert status == 429
        assert "queue full" in doc["error"]
        assert service.registry.counter("service.rejected") >= 1


class TestExecutor:
    def test_coalesces_unfinished_jobs_by_key(self):
        executor = JobExecutor(workers=1, max_queue=4)
        try:
            job1, created1 = executor.submit(_sleep_echo, {"sleep": 0.4}, key="k")
            job2, created2 = executor.submit(_sleep_echo, {"sleep": 0.4}, key="k")
            assert created1 and not created2
            assert job1 is job2
            assert executor.wait(job1, timeout=30) == {"sleep": 0.4}
            # Once finished, the key is released and a new job is created.
            job3, created3 = executor.submit(_sleep_echo, {"sleep": 0.0}, key="k")
            assert created3 and job3 is not job1
            executor.wait(job3, timeout=30)
        finally:
            executor.shutdown()

    def test_cancel_queued_job(self):
        executor = JobExecutor(workers=1, max_queue=4)
        try:
            blocker, _ = executor.submit(_sleep_echo, {"sleep": 0.5})
            # With one worker the process pool hands up to three jobs to
            # its worker side (one running, two in its call queue) and
            # marks them running, so only a fourth job is sure to still
            # be queued.
            fillers = [
                executor.submit(_sleep_echo, {"sleep": 0.0})[0] for _ in range(2)
            ]
            queued, _ = executor.submit(_sleep_echo, {"sleep": 0.0})
            assert executor.cancel(queued.id) is True
            assert queued.state is JobState.CANCELLED
            with pytest.raises(JobTimeoutError):
                executor.wait(queued, timeout=5)
            for job in (blocker, *fillers):
                executor.wait(job, timeout=30)
            assert executor.cancel("job-999999") is False
        finally:
            executor.shutdown()

    def test_wait_timeout_marks_job(self):
        executor = JobExecutor(workers=1, max_queue=4)
        try:
            job, _ = executor.submit(_sleep_echo, {"sleep": 1.0})
            with pytest.raises(JobTimeoutError):
                executor.wait(job, timeout=0.05)
            assert job.state is JobState.TIMEOUT
            assert job.snapshot()["state"] == "timeout"
        finally:
            executor.shutdown()

    def test_rejects_beyond_max_queue(self):
        registry = MetricsRegistry()
        executor = JobExecutor(workers=1, max_queue=1, registry=registry)
        try:
            executor.submit(_sleep_echo, {"sleep": 0.3})
            with pytest.raises(QueueFullError):
                executor.submit(_sleep_echo, {"sleep": 0.0})
            assert registry.counter("service.rejected") == 1
        finally:
            executor.shutdown()

    def test_queue_depth_gauge_published_before_first_submit(self):
        registry = MetricsRegistry()
        executor = JobExecutor(workers=1, registry=registry)
        try:
            assert registry.gauge("service.queue.depth") == 0.0
        finally:
            executor.shutdown()

    def test_forgets_oldest_finished_jobs_beyond_the_bound(self, monkeypatch):
        monkeypatch.setattr(executor_module, "MAX_FINISHED_JOBS", 2)
        executor = JobExecutor(workers=1, max_queue=4)
        try:
            finished = []
            for _ in range(3):
                job, _ = executor.submit(_sleep_echo, {"sleep": 0.0})
                executor.wait(job, timeout=30)
                finished.append(job)
            finished.append(executor.submit_completed({"cached": True}))
            running, _ = executor.submit(_sleep_echo, {"sleep": 0.5})
            assert [executor.get(job.id) for job in finished] == [
                None,
                None,
                finished[2],
                finished[3],
            ]
            # The unfinished job is kept beyond the bound.
            assert executor.get(running.id) is running
            assert executor.stats()["tracked"] == 3
            executor.wait(running, timeout=30)
            assert executor.get(finished[2].id) is None
            assert executor.get(running.id) is running
            assert executor.stats()["tracked"] == 2
        finally:
            executor.shutdown()

    def test_retention_bound_holds_under_concurrent_completions(self, monkeypatch):
        monkeypatch.setattr(executor_module, "MAX_FINISHED_JOBS", 16)
        executor = JobExecutor(workers=1)
        jobs = []

        def complete_many():
            for _ in range(200):
                jobs.append(executor.submit_completed({}))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=complete_many) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            executor.shutdown()
        # Ids are issued and retired under one lock, so the newest ids stay.
        jobs.sort(key=lambda job: job.id)
        assert len(jobs) == 1600
        assert executor.stats()["tracked"] == 16
        assert [executor.get(job.id) for job in jobs[-16:]] == jobs[-16:]
        assert all(executor.get(job.id) is None for job in jobs[:-16])

    def test_shutdown_refuses_new_jobs(self):
        executor = JobExecutor(workers=1)
        executor.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            executor.submit(_sleep_echo, {})


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_jobs(self):
        service = PlanningService(
            workers=2, cache_size=8, request_timeout=None, registry=MetricsRegistry()
        )
        ids = [
            service.submit_job(_solve_body(seed=seed))["job_id"] for seed in (61, 62)
        ]
        service.shutdown(drain=True)  # blocks until both solves finish
        for job_id in ids:
            doc = service.job_status(job_id)
            assert doc["state"] == "done"
            assert doc["result"]["collected_megabits"] > 0

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                str(port),
                "--workers",
                "1",
            ],
            env=env,
            cwd=tmp_path,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    if _request(port, "/healthz", timeout=5)[0] == 200:
                        break
                except (urllib.error.URLError, OSError):
                    time.sleep(0.2)
            else:
                pytest.fail("server never became healthy")
            # Put a solve in flight, then SIGTERM mid-job.
            status, doc = _request(port, "/v1/jobs", "POST", _solve_body(BIG, seed=3))
            assert status == 202 and doc["cached"] is False
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "shut down cleanly (in-flight jobs drained)" in out


def _wait_for_log_lines(stream, needle, timeout=10.0):
    """Access lines are written after the response is sent — poll briefly."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        lines = [l for l in stream.getvalue().splitlines() if needle in l]
        if lines:
            return lines
        time.sleep(0.02)
    return [l for l in stream.getvalue().splitlines() if needle in l]


class TestTelemetry:
    """Request IDs, access logs, Prometheus exposition, merged metrics."""

    def test_every_response_carries_a_request_id(self, served):
        port, _ = served
        status, headers, _ = _raw_request(port, "/healthz")
        assert status == 200
        rid = headers["X-Request-Id"]
        assert rid and len(rid) == 32
        # Errors carry one too.
        status, headers, _ = _raw_request(port, "/nope")
        assert status == 404
        assert headers["X-Request-Id"]

    def test_inbound_request_id_echoed_and_in_access_log(self, served):
        port, _ = served
        stream = io.StringIO()
        configure_access_log(stream=stream)
        try:
            status, headers, body = _raw_request(
                port,
                "/v1/solve",
                "POST",
                _solve_body(seed=71),
                headers={"X-Request-Id": "test-rid-71"},
            )
        finally:
            lines = _wait_for_log_lines(stream, "test-rid-71")
            configure_access_log(stream=io.StringIO())
        assert status == 200
        assert headers["X-Request-Id"] == "test-rid-71"
        entries = [json.loads(line) for line in lines]
        [entry] = [e for e in entries if e["request_id"] == "test-rid-71"]
        assert entry["method"] == "POST"
        assert entry["path"] == "/v1/solve"
        assert entry["status"] == 200
        assert entry["duration_ms"] > 0
        assert entry["cached"] in (True, False)
        if not entry["cached"]:
            assert entry["job_id"].startswith("job-")

    def test_suspicious_inbound_request_id_is_replaced(self, served):
        port, _ = served
        status, headers, _ = _raw_request(
            port, "/healthz", headers={"X-Request-Id": "bad id\twith spaces"}
        )
        assert status == 200
        assert headers["X-Request-Id"] != "bad id\twith spaces"
        assert len(headers["X-Request-Id"]) == 32

    def test_prometheus_round_trip_after_solve(self, served):
        port, _ = served
        assert _request(port, "/v1/solve", "POST", _solve_body(seed=72))[0] == 200
        status, headers, body = _raw_request(port, "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "repro_offline_appro_local_ratio_seconds" in text
        assert "repro_service_http_requests_total" in text
        assert "repro_service_queue_depth" in text
        assert "# TYPE repro_offline_appro_local_ratio_seconds summary" in text
        # Internal merge bookkeeping must not leak odd sample lines.
        for line in text.splitlines():
            assert line.startswith(("#", "repro_")), line

    def test_metrics_accept_header_negotiation(self, served):
        port, _ = served
        status, headers, body = _raw_request(
            port, "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        # Default (no Accept preference) stays JSON — the pre-PR contract.
        status, headers, body = _raw_request(port, "/metrics")
        assert headers["Content-Type"].startswith("application/json")
        assert set(json.loads(body)) == {"counters", "gauges", "timers"}
        # Explicit ?format=json under a text Accept still yields JSON.
        status, headers, _ = _raw_request(
            port, "/metrics?format=json", headers={"Accept": "text/plain"}
        )
        assert headers["Content-Type"].startswith("application/json")

    def test_worker_solver_metrics_merged_into_parent(self, served):
        port, service = served
        assert _request(port, "/v1/solve", "POST", _solve_body(seed=73))[0] == 200
        status, doc = _request(port, "/metrics")
        assert status == 200
        assert doc["counters"]["knapsack.calls"] > 0
        assert doc["timers"]["offline_appro.local_ratio"]["count"] > 0
        assert service.registry.timer_stats("tour.total").count > 0

    def test_per_endpoint_timers_and_status_counters(self, served):
        port, service = served
        assert _request(port, "/healthz")[0] == 200
        registry = service.registry
        assert registry.timer_stats("service.http.healthz").count >= 1
        assert registry.timer_stats("service.http.solve").count >= 1
        assert registry.counter("service.http.requests") >= 2
        assert registry.counter("service.http.status[200]") >= 2
        assert registry.counter("service.http.status[404]") >= 1

    def test_healthz_reports_uptime_and_queue_depth(self, served):
        port, service = served
        status, doc = _request(port, "/healthz")
        assert status == 200
        assert doc["uptime_s"] >= 0.0
        assert doc["queue"]["active"] == 0
        # All solves above have drained by now; the gauge tracks that.
        assert service.registry.gauge("service.queue.depth") == 0.0

    def test_solve_response_has_no_internal_keys(self, served):
        port, _ = served
        status, doc = _request(port, "/v1/solve", "POST", _solve_body(seed=74))
        assert status == 200
        assert "worker_metrics" not in doc
        assert "trace_events" not in doc


class TestTraceCapture:
    @pytest.fixture()
    def traced_server(self, tmp_path):
        """A server persisting a trace for *every* request (threshold 0)."""
        with _serving(
            workers=1,
            cache_size=8,
            request_timeout=120.0,
            trace_threshold=0.0,
            trace_dir=str(tmp_path / "traces"),
        ) as (port, service):
            yield port, service, tmp_path / "traces"

    def test_slow_request_writes_chrome_trace(self, traced_server):
        port, service, trace_dir = traced_server
        stream = io.StringIO()
        configure_access_log(stream=stream)
        try:
            status, headers, body = _raw_request(
                port,
                "/v1/solve",
                "POST",
                _solve_body(seed=81),
                headers={"X-Request-Id": "traced-81"},
            )
        finally:
            lines = _wait_for_log_lines(stream, "traced-81")
            configure_access_log(stream=io.StringIO())
        assert status == 200
        trace_path = trace_dir / "traced-81.trace.json"
        assert trace_path.exists()
        doc = json.loads(trace_path.read_text(encoding="utf-8"))
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert {"tour.total", "tour.solve"} <= {e["name"] for e in events}
        # The folded stacks land next to the Chrome trace.
        folded_path = trace_dir / "traced-81.folded"
        assert folded_path.exists()
        folded_lines = folded_path.read_text(encoding="utf-8").splitlines()
        assert folded_lines
        for line in folded_lines:
            assert re.match(r"^\S+(?:;\S+)* \d+$", line), line
        assert any(line.startswith("solve") for line in folded_lines)
        # The access-log line points at both persisted artifacts.
        [entry] = [json.loads(l) for l in lines if "traced-81" in l]
        assert entry["trace_path"] == str(trace_path)
        assert entry["folded_path"] == str(folded_path)
        # Client body still clean of internal keys.
        client_doc = json.loads(body)
        assert "trace_events" not in client_doc
        assert "folded_stacks" not in client_doc

    def test_cached_solve_does_not_rewrite_trace(self, traced_server):
        port, service, trace_dir = traced_server
        body = _solve_body(seed=82)
        assert _request(port, "/v1/solve", "POST", body)[0] == 200
        before = set(trace_dir.iterdir())
        status, doc = _request(port, "/v1/solve", "POST", body)
        assert status == 200 and doc["cached"] is True
        assert set(trace_dir.iterdir()) == before


class TestSchema:
    def test_defaults_and_canonicalisation(self):
        request = parse_solve_request({"scenario": {}, "algorithm": "online_appro"})
        assert request.algorithm == "Online_Appro"
        assert request.seed is None
        assert request.config.num_sensors == 300

    def test_payload_is_plain_data(self):
        request = parse_solve_request(_solve_body())
        payload = request.payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_sensor_cap_is_400(self):
        with pytest.raises(RequestError) as err:
            parse_solve_request(
                {"scenario": {"num_sensors": 100}}, max_sensors=50
            )
        assert err.value.status == 400
        assert "out of range" in err.value.message

    def test_bad_seed(self):
        with pytest.raises(RequestError, match="seed"):
            parse_solve_request({"seed": "seven"})
        with pytest.raises(RequestError, match="seed"):
            parse_solve_request({"seed": True})

    def test_certify_defaults_false_and_must_be_bool(self):
        assert parse_solve_request({"scenario": {}}).certify is False
        assert parse_solve_request({"scenario": {}, "certify": True}).certify is True
        with pytest.raises(RequestError, match="certify"):
            parse_solve_request({"certify": "yes"})
        with pytest.raises(RequestError, match="certify"):
            parse_solve_request({"certify": 1})

    def test_error_body_shape(self):
        err = RequestError("boom", status=413, field="scenario")
        assert err.to_dict() == {"error": "boom", "status": 413, "field": "scenario"}

    def test_top_level_planner_merges_into_scenario(self):
        request = parse_solve_request(
            {"scenario": {"num_sensors": 10}, "planner": {"kind": "plane_sweep"}}
        )
        assert request.config.planner is not None
        assert request.config.planner.kind == "plane_sweep"
        # And the payload ships it inside the scenario document.
        assert request.payload()["scenario"]["planner"]["kind"] == "plane_sweep"

    def test_planner_inside_scenario_also_accepted(self):
        request = parse_solve_request(
            {"scenario": {"planner": {"kind": "multi_sink", "num_sinks": 3}}}
        )
        assert request.config.planner.num_sinks == 3

    def test_planner_in_both_places_is_400(self):
        with pytest.raises(RequestError, match="pick one"):
            parse_solve_request(
                {
                    "scenario": {"planner": {"kind": "fixed_line"}},
                    "planner": {"kind": "plane_sweep"},
                }
            )

    def test_planner_must_be_object(self):
        with pytest.raises(RequestError, match="planner"):
            parse_solve_request({"scenario": {}, "planner": "plane_sweep"})

    def test_unknown_planner_field_is_400_naming_it(self):
        with pytest.raises(RequestError, match="pacing") as err:
            parse_solve_request({"scenario": {}, "planner": {"pacing": 3}})
        assert err.value.field == "planner"


class TestCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2, registry=MetricsRegistry())
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes "a"
        cache.put("c", {"v": 3})  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert len(cache) == 2

    def test_hit_miss_counters(self):
        registry = MetricsRegistry()
        cache = ResultCache(max_entries=4, registry=registry)
        assert cache.get("x") is None
        cache.put("x", {"v": 1})
        assert cache.get("x") == {"v": 1}
        assert registry.counter("service.cache.miss") == 1
        assert registry.counter("service.cache.hit") == 1

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(max_entries=0, registry=MetricsRegistry())
        cache.put("x", {"v": 1})
        assert cache.get("x") is None

    def test_key_is_field_order_independent(self):
        a = solve_cache_key({"num_sensors": 10, "sink_speed": 5.0}, "A", 1)
        b = solve_cache_key({"sink_speed": 5.0, "num_sensors": 10}, "A", 1)
        c = solve_cache_key({"num_sensors": 11, "sink_speed": 5.0}, "A", 1)
        assert a == b
        assert a != c
        assert a != solve_cache_key({"num_sensors": 10, "sink_speed": 5.0}, "B", 1)
        assert a != solve_cache_key({"num_sensors": 10, "sink_speed": 5.0}, "A", 2)

    def test_certify_flag_changes_key_backward_compatibly(self):
        scenario = {"num_sensors": 10}
        plain = solve_cache_key(scenario, "A", 1)
        # certify=False must hash identically to the historical 3-arg key.
        assert solve_cache_key(scenario, "A", 1, certify=False) == plain
        assert solve_cache_key(scenario, "A", 1, certify=True) != plain

    def test_planner_extends_key_backward_compatibly(self):
        """Planner-less requests keep their historical cache keys; any
        planner (even the identity ``fixed_line``) hashes differently."""
        plain = parse_solve_request({"scenario": {"num_sensors": 10}, "seed": 1})
        planned = parse_solve_request(
            {
                "scenario": {"num_sensors": 10},
                "planner": {"kind": "fixed_line"},
                "seed": 1,
            }
        )
        # to_dict() omits the absent planner → key == historical key.
        assert plain.cache_key() == solve_cache_key(
            plain.config.to_dict(), "Offline_Appro", 1, certify=False
        )
        assert "planner" not in plain.config.to_dict()
        assert planned.cache_key() != plain.cache_key()

    def test_distinct_planners_hash_distinctly(self):
        keys = {
            parse_solve_request(
                {"scenario": {"num_sensors": 10}, "planner": {"kind": kind}, "seed": 1}
            ).cache_key()
            for kind in ("fixed_line", "plane_sweep", "multi_sink")
        }
        assert len(keys) == 3


class TestWorker:
    """The worker entry points in-process: a single solve is a batch of
    one, so batch items and single-solve documents agree field for
    field (wall-clock ``profile`` numbers aside)."""

    @staticmethod
    def _payloads():
        bodies = [
            _solve_body(seed=seed, algorithm=name)
            for seed in (21, 22)
            for name in ("Offline_Appro", "Online_Appro", "Baseline[greedy_profit]")
        ]
        bodies[1]["certify"] = True
        bodies.append(
            _solve_body(
                scenario={**SMALL, "max_offset": 300.0, "sink_speed": 10.0},
                seed=21,
                planner={"kind": "plane_sweep"},
            )
        )
        return [parse_solve_request(body).payload() for body in bodies]

    def test_batch_items_equal_single_solves(self):
        payloads = self._payloads()
        batch = solve_batch_payload({"items": payloads})
        counters = batch[WORKER_METRICS_KEY]["counters"]
        assert counters["batch.groups"] == 3
        assert counters["lp.calls"] == 3
        assert len(batch["results"]) == len(payloads)
        for payload, item in zip(payloads, batch["results"]):
            single = solve_payload(payload)
            metrics = single.pop(WORKER_METRICS_KEY)
            assert metrics["counters"]["lp.calls"] == 1
            assert len(metrics["timers"]["batch.prepare"]) == 1
            assert set(single) == set(item)
            assert {k: v for k, v in single.items() if k != "profile"} == {
                k: v for k, v in item.items() if k != "profile"
            }
        assert "certificate" in batch["results"][1]
        assert batch["results"][-1]["plan"]["kind"] == "plane_sweep"


class TestSolveBatch:
    """``POST /v1/solve-batch``: one job, per-scenario results, shared
    instance preparation, cache interoperability with ``/v1/solve``."""

    def test_batch_solves_every_item_and_shares_cache(self, served):
        port, service = served
        names = [
            "Offline_Appro",
            "Baseline[greedy_profit]",
            "Baseline[round_robin]",
        ]
        body = {"items": [_solve_body(seed=61, algorithm=n) for n in names]}
        status, doc = _request(port, "/v1/solve-batch", "POST", body)
        assert status == 200, doc
        assert doc["items"] == 3
        assert doc["cache_hits"] == 0
        assert [r["algorithm"] for r in doc["results"]] == names
        for result in doc["results"]:
            assert result["cached"] is False
            assert result["collected_megabits"] > 0
            assert len(result["schedule"]) == result["num_slots"]
        # Replay: every item now comes from the cache.
        status, doc = _request(port, "/v1/solve-batch", "POST", body)
        assert status == 200
        assert doc["cache_hits"] == 3
        assert all(r["cached"] for r in doc["results"])

    def test_batch_results_match_single_solves(self, served):
        port, _ = served
        item = _solve_body(seed=62)
        status, single = _request(port, "/v1/solve", "POST", item)
        assert status == 200
        status, doc = _request(port, "/v1/solve-batch", "POST", {"items": [item]})
        assert status == 200
        batched = doc["results"][0]
        # The single solve populated the cache; the batch reuses it, and
        # the payloads agree except for the cache marker.
        assert batched["cached"] is True
        assert batched["collected_bits"] == single["collected_bits"]
        assert batched["schedule"] == single["schedule"]

    def test_batch_populates_cache_for_single_solves(self, served):
        port, _ = served
        item = _solve_body(seed=63, algorithm="Baseline[greedy_density]")
        status, doc = _request(port, "/v1/solve-batch", "POST", {"items": [item]})
        assert status == 200
        assert doc["cache_hits"] == 0
        status, single = _request(port, "/v1/solve", "POST", item)
        assert status == 200
        assert single["cached"] is True
        assert single["collected_bits"] == doc["results"][0]["collected_bits"]

    def test_batch_item_certification(self, served):
        port, _ = served
        item = _solve_body(seed=64, certify=True)
        status, doc = _request(port, "/v1/solve-batch", "POST", {"items": [item]})
        assert status == 200, doc
        cert = doc["results"][0]["certificate"]
        assert cert["format"] == "repro.certificate"
        assert cert["verdict"] == "pass"

    def test_mixed_seeds_group_separately(self, served):
        port, _ = served
        body = {
            "items": [
                _solve_body(seed=65),
                _solve_body(seed=66),
                _solve_body(seed=65, algorithm="Baseline[greedy_profit]"),
            ]
        }
        status, doc = _request(port, "/v1/solve-batch", "POST", body)
        assert status == 200
        a, b, c = doc["results"]
        assert a["seed"] == 65 and b["seed"] == 66 and c["seed"] == 65
        # Different seeds genuinely produce different deployments.
        assert a["collected_bits"] != b["collected_bits"]

    def test_batch_prepares_each_deployment_once(self, served):
        port, service = served
        registry = service.registry
        prepared = registry.timer_stats("batch.prepare").count
        solves = registry.counter("lp.calls")
        body = {
            "items": [
                _solve_body(seed=67),
                _solve_body(seed=68),
                _solve_body(seed=67, algorithm="Baseline[greedy_profit]", certify=True),
            ]
        }
        status, doc = _request(port, "/v1/solve-batch", "POST", body)
        assert status == 200, doc
        assert doc["cache_hits"] == 0
        assert registry.timer_stats("batch.prepare").count == prepared + 2
        assert registry.counter("lp.calls") == solves + 2
        a, _, c = doc["results"]
        assert c["certificate"]["lp_bound_bits"] == a["lp_bound_bits"]

    def test_validation_errors_name_the_item(self, served):
        port, _ = served
        status, doc = _request(
            port,
            "/v1/solve-batch",
            "POST",
            {"items": [_solve_body(), {"algorithm": "Nope", "scenario": dict(SMALL)}]},
        )
        assert status == 400
        assert "items[1]" in doc["error"]

    def test_batch_body_shape_errors(self, served):
        port, _ = served
        assert _request(port, "/v1/solve-batch", "POST", [1, 2])[0] == 400
        assert _request(port, "/v1/solve-batch", "POST", {"items": []})[0] == 400
        status, doc = _request(
            port, "/v1/solve-batch", "POST", {"items": [_solve_body()], "bogus": 1}
        )
        assert status == 400
        assert "bogus" in doc["error"]

    def test_batch_size_cap(self, served):
        port, service = served
        too_many = {
            "items": [
                _solve_body(seed=s) for s in range(service.max_batch_items + 1)
            ]
        }
        status, doc = _request(port, "/v1/solve-batch", "POST", too_many)
        assert status == 400
        assert "items" in doc["error"]
