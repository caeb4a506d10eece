"""Bounded process-pool job executor with request lifecycle tracking.

Wraps :class:`concurrent.futures.ProcessPoolExecutor` — solves are
CPU-bound, so threads would serialise on the GIL — behind a small job
model the HTTP layer can expose:

* **bounded queue depth** — at most ``max_queue`` unfinished jobs are
  admitted; excess submissions raise :class:`QueueFullError` (the
  server's 429) and increment the ``service.rejected`` counter;
* **coalescing by key** — submitting with the ``key`` of an unfinished
  job returns that job instead of spawning a duplicate, so concurrent
  identical solve requests share one worker slot (finished results are
  the cache's problem, in-flight ones are handled here);
* **per-job timeouts** — :meth:`JobExecutor.wait` bounds the wait and
  raises :class:`JobTimeoutError` (the server's 504); expired jobs are
  cancelled if still queued (a job already running on a worker process
  cannot be killed — it finishes and only then frees its slot);
* **cancellation** — :meth:`JobExecutor.cancel` revokes queued jobs;
* **bounded retention** — the newest :data:`MAX_FINISHED_JOBS`
  finished jobs stay pollable; older finished ids are forgotten and
  look up as unknown (the server's 404).  Unfinished jobs are never
  forgotten;
* **graceful drain** — :meth:`JobExecutor.shutdown` with ``drain=True``
  (what SIGTERM triggers) stops admissions and blocks until in-flight
  jobs finish; ``drain=False`` additionally cancels queued ones;
* **worker-metrics merging** — when a finished solve carries a
  ``worker_metrics`` registry dump (see :mod:`repro.service.worker`),
  it is folded into the parent registry as real counter increments and
  timer observations, so solver-phase costs measured inside worker
  processes surface in ``GET /metrics``; the ``service.queue.depth``
  gauge tracks unfinished jobs from construction (0) and on every
  submit/finish.

Jobs carry monotonically increasing ids (``job-000001``, …) and expose
a JSON-ready :meth:`Job.snapshot` for the polling endpoint.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from enum import Enum
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.obs.registry import MetricsRegistry, get_registry
from repro.service.worker import WORKER_METRICS_KEY

__all__ = [
    "Job",
    "JobState",
    "JobExecutor",
    "QueueFullError",
    "JobTimeoutError",
]

#: Finished jobs kept for polling; each holds its full result (about
#: 16 KB for an n = 100 solve), so the table stays near 16 MB.
MAX_FINISHED_JOBS = 1024


class QueueFullError(RuntimeError):
    """Raised when a submission would exceed the bounded queue depth."""


class JobTimeoutError(TimeoutError):
    """Raised when a job misses its deadline (the HTTP 504 case)."""


class JobState(str, Enum):
    """Lifecycle of one job, derived from its future on demand."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"


class Job:
    """One submitted unit of work and its lifecycle bookkeeping.

    State is *derived* from the underlying future (plus the timeout
    flag) rather than stored, so there is no state machine to keep in
    sync; :meth:`snapshot` renders it JSON-ready for the poll endpoint.
    """

    __slots__ = (
        "id",
        "key",
        "submitted_at",
        "finished_at",
        "timed_out",
        "future",
        "settled",
    )

    def __init__(self, job_id: str, key: Optional[str] = None):
        self.id = job_id
        self.key = key
        self.submitted_at = time.monotonic()
        self.finished_at: Optional[float] = None
        self.timed_out = False
        self.future: Optional[Future] = None
        # Set once the executor's finish bookkeeping (result callback,
        # metrics merge, key release) has run; the future's waiters wake
        # before its done-callbacks do.
        self.settled = threading.Event()

    # ------------------------------------------------------------------
    @property
    def state(self) -> JobState:
        """Current lifecycle state."""
        future = self.future
        if self.timed_out:
            return JobState.TIMEOUT
        if future is None:
            return JobState.PENDING
        if future.cancelled():
            return JobState.CANCELLED
        if future.done():
            return JobState.FAILED if future.exception() else JobState.DONE
        if future.running():
            return JobState.RUNNING
        return JobState.PENDING

    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.future is not None and self.future.done()

    def result(self) -> dict:
        """The finished job's result (raises the job's exception for
        failed jobs; only call when :meth:`done` is true)."""
        assert self.future is not None
        return self.future.result(timeout=0)

    def error(self) -> Optional[str]:
        """Stringified failure reason, or ``None`` for non-failed jobs."""
        if self.future is None or not self.future.done() or self.future.cancelled():
            return None
        exc = self.future.exception()
        return None if exc is None else f"{type(exc).__name__}: {exc}"

    def snapshot(self) -> dict:
        """JSON-ready view: id, state, runtime, and error (if failed)."""
        end = self.finished_at if self.finished_at is not None else time.monotonic()
        return {
            "job_id": self.id,
            "state": self.state.value,
            "runtime_s": end - self.submitted_at,
            "error": self.error(),
        }


class JobExecutor:
    """Process-pool executor with bounded admission and job tracking.

    Parameters
    ----------
    workers:
        Worker processes (``None`` → the pool's default, one per core).
    max_queue:
        Maximum *unfinished* (queued + running) jobs admitted at once.
    default_timeout:
        Deadline (seconds) :meth:`wait` applies when none is given;
        ``None`` waits forever.
    registry:
        Metrics registry for the ``service.rejected`` / ``service.jobs.*``
        counters; ``None`` dispatches to the process-global registry at
        call time.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_queue: int = 32,
        default_timeout: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if default_timeout is not None and default_timeout <= 0:
            raise ValueError(f"default_timeout must be > 0, got {default_timeout}")
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        self._registry = registry
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._finished: "deque[str]" = deque()
        self._by_key: Dict[str, Job] = {}
        self._active = 0
        self._ids = itertools.count(1)
        self._shutdown = False
        # Publish the empty queue, so /metrics carries the series (at 0)
        # before the first submit.
        self._metrics().set_gauge("service.queue.depth", 0)

    # ------------------------------------------------------------------
    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def _merge_worker_metrics(self, future: Future) -> None:
        """Fold a finished solve's worker-side registry dump into the
        parent registry, so ``/metrics`` reflects solver-phase costs
        (knapsack/matching/gap timers and counters) — worker
        processes cannot record into the parent directly."""
        if future.cancelled() or future.exception() is not None:
            return
        result = future.result()
        if not isinstance(result, Mapping):
            return
        dump = result.get(WORKER_METRICS_KEY)
        if isinstance(dump, Mapping):
            self._metrics().merge(dump)

    def _retire(self, job: Job) -> None:
        """Record ``job`` as finished and forget the oldest finished
        jobs beyond :data:`MAX_FINISHED_JOBS`; call under the lock."""
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self._jobs[self._finished.popleft()]

    def _on_finish(self, job: Job) -> Callable[[Future], None]:
        def callback(future: Future) -> None:
            try:
                job.finished_at = time.monotonic()
                self._merge_worker_metrics(future)
                with self._lock:
                    self._active -= 1
                    depth = self._active
                    if job.key is not None and self._by_key.get(job.key) is job:
                        del self._by_key[job.key]
                    self._retire(job)
                self._metrics().set_gauge("service.queue.depth", depth)
            finally:
                job.settled.set()

        return callback

    def submit(
        self,
        fn: Callable[[dict], dict],
        payload: dict,
        key: Optional[str] = None,
        on_result: Optional[Callable[[Future], None]] = None,
    ) -> Tuple[Job, bool]:
        """Admit ``fn(payload)`` as a job; returns ``(job, created)``.

        When ``key`` names an unfinished job, that job is returned with
        ``created=False`` and nothing new is submitted (in-flight
        coalescing).  Raises :class:`QueueFullError` when ``max_queue``
        unfinished jobs are already admitted, and :class:`RuntimeError`
        after shutdown.  ``on_result`` (if given) runs on the finished
        future *before* the job leaves the coalescing map — the service
        stores results into its cache there, so identical requests hit
        either the in-flight job or the cache, never the worker pool
        twice.
        """
        with self._lock:
            if self._shutdown:
                raise RuntimeError("executor is shut down; not accepting jobs")
            if key is not None:
                existing = self._by_key.get(key)
                if existing is not None:
                    self._metrics().inc("service.jobs.coalesced")
                    return existing, False
            if self._active >= self.max_queue:
                self._metrics().inc("service.rejected")
                raise QueueFullError(
                    f"job queue full ({self._active}/{self.max_queue} unfinished jobs)"
                )
            job = Job(f"job-{next(self._ids):06d}", key=key)
            self._jobs[job.id] = job
            if key is not None:
                self._by_key[key] = job
            self._active += 1
            depth = self._active
            job.future = self._pool.submit(fn, payload)
        self._metrics().set_gauge("service.queue.depth", depth)
        if on_result is not None:
            job.future.add_done_callback(on_result)
        job.future.add_done_callback(self._on_finish(job))
        self._metrics().inc("service.jobs.submitted")
        return job, True

    def submit_completed(self, result: dict, key: Optional[str] = None) -> Job:
        """Register an already-finished job holding ``result`` — the
        async endpoint's cache-hit path, so clients still get a
        pollable job id without burning a worker slot."""
        with self._lock:
            if self._shutdown:
                raise RuntimeError("executor is shut down; not accepting jobs")
            job = Job(f"job-{next(self._ids):06d}", key=key)
            future: Future = Future()
            future.set_result(result)
            job.future = future
            job.finished_at = time.monotonic()
            job.settled.set()
            self._jobs[job.id] = job
            self._retire(job)
        return job

    # ------------------------------------------------------------------
    def wait(self, job: Job, timeout: Optional[float] = None) -> dict:
        """Block until ``job`` finishes and return its result.

        ``timeout`` (falling back to ``default_timeout``) bounds the
        wait; on expiry the job is cancelled if still queued, marked
        timed-out, and :class:`JobTimeoutError` is raised.  A job
        cancelled elsewhere surfaces as :class:`JobTimeoutError` too —
        from the waiter's perspective the result is equally gone.  A
        returned result is settled: its ``on_result`` callback has run
        and its key no longer coalesces new submissions.
        """
        deadline = timeout if timeout is not None else self.default_timeout
        assert job.future is not None
        try:
            result = job.future.result(timeout=deadline)
            job.settled.wait()
            return result
        except _FutureTimeout:
            job.future.cancel()  # revoke if still queued; running jobs finish
            job.timed_out = True
            self._metrics().inc("service.timeout")
            raise JobTimeoutError(
                f"job {job.id} exceeded its {deadline:.3f} s deadline"
            ) from None
        except CancelledError:
            raise JobTimeoutError(f"job {job.id} was cancelled") from None

    def get(self, job_id: str) -> Optional[Job]:
        """Look up a job by id (``None`` when unknown or forgotten)."""
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; returns whether revocation succeeded
        (running jobs cannot be interrupted mid-solve)."""
        job = self.get(job_id)
        if job is None or job.future is None:
            return False
        return job.future.cancel()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Queue occupancy: unfinished jobs, capacity, jobs still
        pollable (unfinished plus retained finished ones)."""
        with self._lock:
            return {
                "active": self._active,
                "max_queue": self.max_queue,
                "tracked": len(self._jobs),
            }

    def shutdown(self, drain: bool = True) -> None:
        """Stop admissions and release the pool.

        ``drain=True`` blocks until every in-flight job has finished
        (the graceful SIGTERM path); ``drain=False`` also cancels jobs
        still waiting for a worker.  Idempotent.
        """
        with self._lock:
            self._shutdown = True
        self._pool.shutdown(wait=True, cancel_futures=not drain)
