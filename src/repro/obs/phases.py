"""One phase primitive: the only way library code times a block.

``with phase("tour.solve", profile, deep=True, algorithm=name):`` reads
:func:`time.perf_counter` once on entry and once on exit and feeds that
one interval to every active sink: the registry timer ``name`` (on the
global registry active at entry, or on ``registry``), the tracer span
``name`` with ``attrs``, ``into["<stem>_s"]`` when a profile dict is
given, and, with ``deep=True``, a
:class:`~repro.obs.profiling.DeepProfiler` window named ``<stem>``.
``<stem>`` is the name's last dotted segment (``tour.solve`` →
``solve_s``, window ``solve``).

The timer observation, the span duration and the profile entry are the
same float, so the views cannot disagree.  With no sink active and no
dict, no clock is read.  Deep windows never nest, and sit inside the
clock reads, so the interval includes their bookkeeping.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.obs import profiling, registry as _registry, tracing

__all__ = ["phase"]


def _stem(name: str) -> str:
    """Last dotted segment of a phase name."""
    return name.rpartition(".")[2]


class phase:
    """Context manager timing one block into every active sink (see
    the module docstring); records on exceptions and never swallows."""

    __slots__ = ("name", "_into", "_deep", "_pinned", "_attrs", "_registry",
                 "_tracer", "_depth", "_window", "_t0")

    def __init__(
        self,
        name: str,
        into: Optional[Dict[str, float]] = None,
        *,
        deep: bool = False,
        registry: Optional[_registry.MetricsRegistry] = None,
        **attrs: object,
    ) -> None:
        self.name = name
        self._into = into
        self._deep = deep
        self._pinned = registry
        self._attrs = attrs
        self._window = None
        self._t0: Optional[float] = None

    def __enter__(self) -> "phase":
        registry = self._pinned if self._pinned is not None else _registry._registry
        self._registry = registry if registry._enabled else None
        tracer = tracing._tracer
        if tracer._enabled:
            self._tracer = tracer
            self._depth = tracer._depth
            tracer._depth += 1
        else:
            self._tracer = None
        if self._registry is not None or self._tracer is not None or self._into is not None:
            self._t0 = time.perf_counter()
        if self._deep:
            self._window = profiling._profiler.phase(_stem(self.name))
            self._window.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._window is not None:
            window, self._window = self._window, None
            window.__exit__(exc_type, exc, tb)
        start = self._t0
        if start is None:
            return False
        # Bookkeeping that needs no interval runs before the closing clock
        # read, so it is charged to this phase, not to its parent's gap.
        self._t0 = None
        if self._tracer is not None:
            self._tracer._depth -= 1
        key = None if self._into is None else _stem(self.name) + "_s"
        elapsed = time.perf_counter() - start
        if self._registry is not None:
            self._registry.observe(self.name, elapsed)
        if self._tracer is not None:
            self._tracer.record(self.name, start, elapsed, self._depth, self._attrs)
        if key is not None:
            self._into[key] = elapsed
        return False
