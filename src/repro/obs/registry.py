"""Run-metrics registry: counters, gauges and timer histograms.

The scheduler stack is instrumented at *coarse* granularity — one
counter increment or timer observation per solve, never per inner-loop
iteration — so the cost of instrumentation is governed by this module's
dispatch, not by the algorithms' asymptotics.  Two registry flavours
realise the "near-free when disabled" contract:

* :class:`MetricsRegistry` — the real thing: thread-safe counters,
  gauges, and timer histograms (count/total/min/max/mean/p50/p95/p99)
  and a :meth:`~MetricsRegistry.snapshot` exportable as JSON;
* :class:`NullRegistry` — every recording method is a ``pass``, so call
  sites stay branch-free and the disabled path costs one attribute load
  and a no-op call.

Timers are fed by :class:`repro.obs.phase`, which skips the clock
entirely when no registry, tracer or profile dict listens.

A **process-global default registry** (initially a :class:`NullRegistry`)
is what the instrumented library code records into; swap it with
:func:`set_registry`, scope it with :func:`use_registry`, or use the
:func:`enable_metrics` / :func:`disable_metrics` conveniences.  The
module-level :func:`inc` / :func:`set_gauge` helpers always dispatch to
the *current* global registry.

Registries are per-process: sweep workers spawned by
:func:`repro.experiments.sweep.run_sweep` each see their own (null)
registry, so metrics of multiprocess sweeps are only captured with
``jobs=1``.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = [
    "TimerStats",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "enable_metrics",
    "disable_metrics",
    "inc",
    "set_gauge",
]


@dataclass(frozen=True)
class TimerStats:
    """Summary statistics of one timer's observations (seconds)."""

    count: int
    total: float
    min: float
    max: float
    mean: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> Dict[str, float]:
        """Flat dict with ``_s``-suffixed keys for JSON reports."""
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.min,
            "max_s": self.max,
            "mean_s": self.mean,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "p99_s": self.p99,
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values, ``q`` in [0, 1]."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


class MetricsRegistry:
    """Mutable store of named counters, gauges, and timer histograms.

    Counters accumulate (:meth:`inc`), gauges hold the last value set
    (:meth:`set_gauge`), timers collect raw duration observations
    (:meth:`observe`, fed by :class:`repro.obs.phase`) summarised
    on demand by :meth:`timer_stats` / :meth:`snapshot`.  All mutation
    goes through one lock, so concurrent recording from threads is safe.
    """

    _enabled: bool = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this registry records anything."""
        return self._enabled

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration observation for timer ``name``."""
        with self._lock:
            self._timers.setdefault(name, []).append(float(seconds))

    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> Optional[float]:
        """Current value of gauge ``name`` (``None`` if never set)."""
        with self._lock:
            return self._gauges.get(name)

    def timer_stats(self, name: str) -> TimerStats:
        """Summary statistics of timer ``name`` (zeros if unobserved)."""
        with self._lock:
            values = sorted(self._timers.get(name, ()))
        if not values:
            return TimerStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        total = float(sum(values))
        return TimerStats(
            count=len(values),
            total=total,
            min=values[0],
            max=values[-1],
            mean=total / len(values),
            p50=_percentile(values, 0.50),
            p95=_percentile(values, 0.95),
            p99=_percentile(values, 0.99),
        )

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-ready view: ``{"counters": .., "gauges": .., "timers": ..}``.

        Timer entries are the :meth:`TimerStats.as_dict` summaries, not
        the raw observations.
        """
        with self._lock:
            timer_names = list(self._timers)
            counters = dict(self._counters)
            gauges = dict(self._gauges)
        return {
            "counters": counters,
            "gauges": gauges,
            "timers": {name: self.timer_stats(name).as_dict() for name in timer_names},
        }

    def dump(self) -> Dict[str, Dict]:
        """Mergeable view: counters, gauges, and **raw** timer observations.

        Unlike :meth:`snapshot`, timers are the raw per-observation
        lists, so :meth:`merge` on another registry can replay them as
        real observations (quantiles stay exact).  The result is plain
        dicts/lists/floats — picklable across the worker process
        boundary.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {name: list(values) for name, values in self._timers.items()},
            }

    def merge(self, dump: Dict[str, Dict]) -> None:
        """Fold another registry's :meth:`dump` into this one.

        Counters add, gauges take the incoming value (last write wins,
        as everywhere), timer observations are replayed one by one —
        this is how worker-process solver metrics reach the service's
        parent registry.
        """
        if not self._enabled:
            return
        counters = dump.get("counters", {})
        gauges = dump.get("gauges", {})
        timers = dump.get("timers", {})
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + float(value)
            for name, value in gauges.items():
                self._gauges[name] = float(value)
            for name, observations in timers.items():
                self._timers.setdefault(name, []).extend(
                    float(s) for s in observations
                )

    def reset(self) -> None:
        """Drop every counter, gauge, and timer observation."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()


class NullRegistry(MetricsRegistry):
    """A registry that records nothing — the near-free default.

    Every mutator is a no-op; reads report emptiness.  Shared safely
    across threads (there is no state to race on).
    """

    _enabled = False

    def inc(self, name: str, value: float = 1.0) -> None:
        """No-op."""

    def set_gauge(self, name: str, value: float) -> None:
        """No-op."""

    def observe(self, name: str, seconds: float) -> None:
        """No-op."""


#: The process-global current registry (module-private; use the accessors).
_registry: MetricsRegistry = NullRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry instrumented code records into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-global one; returns the
    previous registry (so callers can restore it)."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the global one for a ``with`` block."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def enable_metrics() -> MetricsRegistry:
    """Install (and return) a fresh recording :class:`MetricsRegistry`."""
    registry = MetricsRegistry()
    set_registry(registry)
    return registry


def disable_metrics() -> None:
    """Restore the no-op default registry."""
    set_registry(NullRegistry())


def inc(name: str, value: float = 1.0) -> None:
    """Increment counter ``name`` on the current global registry."""
    _registry.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the current global registry."""
    _registry.set_gauge(name, value)
