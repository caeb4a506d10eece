"""Content-addressed LRU result cache for the planning service.

A solve is a pure function of ``(scenario config, algorithm, seed)`` —
the simulator is deterministic given the seed and ``POST /v1/solve``
runs with ``mutate=False`` — so identical requests can be served from a
cache keyed on a canonical hash of exactly those three inputs
(:func:`solve_cache_key`).  :class:`ResultCache` is a thread-safe LRU
over that key space; every lookup records a ``service.cache.hit`` or
``service.cache.miss`` counter into the metrics registry (the global
one by default, or the registry pinned at construction), so
``GET /metrics`` exposes cache effectiveness for free.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Dict, Mapping, Optional

from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["ResultCache", "solve_cache_key"]


def solve_cache_key(
    scenario: Mapping,
    algorithm: str,
    seed: Optional[int],
    certify: bool = False,
) -> str:
    """Canonical content hash of one solve request.

    The scenario dict is serialised with sorted keys and compact
    separators, so two requests that describe the same configuration —
    regardless of field order — hash identically.  Certified solves
    hash differently from plain ones (their response bodies differ),
    but ``certify=False`` keeps the historical hash so existing caches
    stay warm.  Returns a hex SHA-256 digest.
    """
    document = {
        "scenario": dict(scenario),
        "algorithm": algorithm,
        "seed": seed,
    }
    if certify:
        document["certify"] = True
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"), default=float)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Thread-safe LRU cache of solve results keyed by content hash.

    Parameters
    ----------
    max_entries:
        Capacity; least-recently-used entries are evicted beyond it.
        ``0`` disables storage (every lookup is a miss) without
        disturbing the call sites.
    registry:
        Metrics registry the hit/miss counters are recorded into.
        ``None`` (the default) dispatches to the process-global
        registry at call time, so a registry enabled after construction
        still sees the counters.
    """

    def __init__(
        self,
        max_entries: int = 128,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self._max_entries = max_entries
        self._registry = registry
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, dict]" = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def max_entries(self) -> int:
        """Configured capacity."""
        return self._max_entries

    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def get(self, key: str) -> Optional[dict]:
        """The cached result for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency and increments
        ``service.cache.hit``; a miss increments ``service.cache.miss``.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self._metrics().inc("service.cache.miss")
            return None
        self._metrics().inc("service.cache.hit")
        return entry

    def put(self, key: str, value: dict) -> None:
        """Store ``value`` under ``key``, evicting LRU entries beyond
        capacity.  A no-op when capacity is 0."""
        if self._max_entries == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Occupancy snapshot: ``entries`` held and ``max_entries``.

        Lookup effectiveness lives in the registry's
        ``service.cache.hit`` / ``service.cache.miss`` counters.
        """
        with self._lock:
            return {"entries": len(self._entries), "max_entries": self._max_entries}
