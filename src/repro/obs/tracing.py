"""Span-style tracing of solver phases.

A :class:`Tracer` records :class:`SpanEvent`\\ s — named, possibly
nested, wall-clock intervals with free-form attributes.  Spans come
from :class:`repro.obs.phase`, which hands each finished interval to
:meth:`Tracer.record`::

    with use_tracer(Tracer()) as tracer:
        with phase("tour.solve", algorithm="Offline_Appro"):
            with phase("offline_appro.local_ratio"):
                ...

and exports the event stream two ways:

* :meth:`Tracer.to_jsonl` — one JSON object per line, the stable
  machine-readable form (:func:`events_from_jsonl` is its inverse);
* :meth:`Tracer.to_chrome_trace` — the Chrome ``trace_event`` JSON
  format, loadable in ``chrome://tracing`` / Perfetto for a flame view
  of a run.

Timestamps are :func:`time.perf_counter` seconds relative to the
tracer's construction, so traces are self-contained and subtraction-free.
Like the metrics registry, a process-global tracer (default
:class:`NullTracer`) is what phases record into; :func:`use_tracer`
scopes a recording tracer over a block.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Union

from repro.obs.context import current_request_id

__all__ = [
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "events_from_jsonl",
    "chrome_trace_document",
]


@dataclass(frozen=True)
class SpanEvent:
    """One completed span.

    Attributes
    ----------
    name:
        Dotted phase name (``"tour.solve"``, ``"offline_appro.reduce"``).
    start_s / duration_s:
        Start offset from the tracer's epoch and duration, in seconds.
    depth:
        Nesting depth at entry (0 = top level).
    attrs:
        Free-form JSON-serialisable key/values given to the phase.
    """

    name: str
    start_s: float
    duration_s: float
    depth: int
    attrs: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form used by the JSONL export."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects spans; completed spans land in :attr:`events` in
    completion (exit) order."""

    _enabled: bool = True

    def __init__(self) -> None:
        self.events: List[SpanEvent] = []
        self._epoch = time.perf_counter()
        self._depth = 0  # open phases, maintained by repro.obs.phase

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this tracer records anything."""
        return self._enabled

    def record(
        self,
        name: str,
        start: float,
        duration_s: float,
        depth: int,
        attrs: Dict[str, object],
    ) -> None:
        """Append one finished span (called by :class:`repro.obs.phase`);
        ``start`` is a raw :func:`time.perf_counter` reading.

        Inside a service request (see :mod:`repro.obs.context`) the
        current request id is stamped into the span's attributes, so
        exported traces correlate with access-log lines.
        """
        if "request_id" not in attrs:
            request_id = current_request_id()
            if request_id is not None:
                attrs["request_id"] = request_id
        self.events.append(SpanEvent(name, start - self._epoch, duration_s, depth, attrs))

    def reset(self) -> None:
        """Drop recorded events and restart the epoch."""
        self.events.clear()
        self._epoch = time.perf_counter()
        self._depth = 0

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialise events as JSON Lines (one span object per line)."""
        return "".join(json.dumps(e.as_dict()) + "\n" for e in self.events)

    def to_chrome_trace(self) -> str:
        """Serialise as Chrome ``trace_event`` JSON (complete "X" events,
        microsecond timestamps) for ``chrome://tracing`` / Perfetto."""
        return chrome_trace_document(self.events)


class NullTracer(Tracer):
    """A tracer that records nothing — the near-free default."""

    _enabled = False

    def record(self, name, start, duration_s, depth, attrs) -> None:  # type: ignore[override]
        """No-op."""


def chrome_trace_document(
    events: Iterable[Union[SpanEvent, Mapping]], pid: Optional[int] = None
) -> str:
    """Serialise spans as a Chrome ``trace_event`` JSON document.

    Accepts :class:`SpanEvent` instances or their :meth:`~SpanEvent.as_dict`
    shapes interchangeably — the latter is what worker processes ship
    back across the pickle boundary for slow-request trace capture.
    """
    pid = os.getpid() if pid is None else pid
    trace_events = []
    for event in events:
        doc = event.as_dict() if isinstance(event, SpanEvent) else dict(event)
        trace_events.append(
            {
                "name": doc["name"],
                "cat": "repro",
                "ph": "X",
                "ts": float(doc["start_s"]) * 1e6,
                "dur": float(doc["duration_s"]) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": dict(doc.get("attrs", {})),
            }
        )
    return json.dumps({"traceEvents": trace_events, "displayTimeUnit": "ms"})


def events_from_jsonl(text: str) -> List[SpanEvent]:
    """Inverse of :meth:`Tracer.to_jsonl` (blank lines are skipped)."""
    events: List[SpanEvent] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        events.append(
            SpanEvent(
                name=str(doc["name"]),
                start_s=float(doc["start_s"]),
                duration_s=float(doc["duration_s"]),
                depth=int(doc["depth"]),
                attrs=dict(doc.get("attrs", {})),
            )
        )
    return events


#: The process-global current tracer (module-private; use the accessors).
_tracer: Tracer = NullTracer()


def get_tracer() -> Tracer:
    """The process-global tracer instrumented code records into."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous tracer."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scope ``tracer`` as the global one for a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
