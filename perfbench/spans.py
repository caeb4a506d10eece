"""In-memory span recorder for the traced runs.

The benchmark opens a span around each call it makes into a layer of the
program and adds the per-phase durations ``run_tour`` reports in
``TourResult.profile`` as child spans of its ``sim.run_tour`` span.  A
layer's self time is its span duration minus the time its children
cover.  Spans stay in memory and are written out once, at the end of the
run, as a Chrome ``trace_event`` document.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int], str]  # name, start, end, parent, op id


class SpanRecorder:
    """Collects spans; ``open``/``close`` nest, ``add`` records a finished one."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def open(self, name: str, op: str = "") -> int:
        """Start a span as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, time.perf_counter(), 0.0, parent, op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the innermost open span, which must be ``index``."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op)

    def unwind(self, index: int) -> None:
        """Close every open span down to and including ``index`` (after
        an exception left inner spans open)."""
        while index in self._stack:
            self.close(self._stack[-1])

    def add_phases(self, parent: int, phases: List[Tuple[str, float]]) -> None:
        """Lay ``(name, seconds)`` phases end to end from ``parent``'s start.

        Used for ``TourResult.profile``: the durations are measured inside
        the program, the placement inside the parent span is sequential,
        as the phases run.
        """
        cursor = self.spans[parent][1]
        op = self.spans[parent][4]
        for name, seconds in phases:
            self.spans.append((name, cursor, cursor + seconds, parent, op))
            cursor += seconds

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds."""
        covered: Dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def chrome_trace(self) -> str:
        """The spans as Chrome ``trace_event`` JSON (complete events, µs)."""
        if not self.spans:
            return json.dumps({"traceEvents": []})
        origin = min(start for _, start, _, _, _ in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": op, "parent": parent},
            }
            for name, start, end, parent, op in self.spans
        ]
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


class Tracer:
    """Spans into a recorder when tracing, nothing otherwise, behind one
    call shape, so a traced and an untraced operation run the same code."""

    def __init__(self, recorder: Optional[SpanRecorder]) -> None:
        self.recorder = recorder

    def open(self, name: str, op: str = "") -> int:
        return self.recorder.open(name, op) if self.recorder else -1

    def close(self, index: int) -> None:
        if self.recorder:
            self.recorder.close(index)

    def phases(self, index: int, phases: List[Tuple[str, float]]) -> None:
        if self.recorder:
            self.recorder.add_phases(index, phases)

    def unwind(self, index: int) -> None:
        if self.recorder:
            self.recorder.unwind(index)
