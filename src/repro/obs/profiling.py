"""Deep per-phase attribution: cProfile + tracemalloc behind one switch.

The registry and tracer answer *how long* each phase took; this module
answers *where the time and memory went*.  A :class:`DeepProfiler`
wraps any named phase (``instance_build`` / ``plan`` / ``solve`` /
``verify`` / ``certify``) in a :mod:`cProfile` run and a
:mod:`tracemalloc` peak window, and merges repeated invocations of the
same phase, so one profiler can cover a whole tour — or a whole bench
cell — and report:

* :meth:`DeepProfiler.attribution` — per-phase hot-function tables
  (cumulative/self milliseconds, call counts, sorted by self time) plus
  a ``peak_memory_bytes`` gauge per phase;
* :meth:`DeepProfiler.folded` — collapsed-stack text in the
  flamegraph-folded format (``phase;frame;frame <count>`` lines, counts
  in integer microseconds), renderable by any flamegraph tool and
  diffable across commits.

cProfile records a caller/callee pair graph, not full stacks, so the
folded export reconstructs stacks deterministically: walk the callee
graph down from the root functions, splitting each function's self and
cumulative time across its incoming edges proportionally (the classic
flameprof approach), pruning sub-microsecond paths and breaking cycles
by never revisiting a frame already on the current path.

Like the registry and tracer, a process-global profiler (default
:class:`NullProfiler`, near-free) is what ``phase(..., deep=True)``
(:class:`repro.obs.phase`, used by ``run_tour`` and the planner) opens
its windows on; :func:`use_profiler` scopes a recording profiler over a
block::

    from repro.obs import DeepProfiler, use_profiler

    with use_profiler(DeepProfiler()) as prof:
        result = run_tour(scenario, get_algorithm("Offline_Appro"))
    print(prof.attribution()["phases"]["solve"]["hot_functions"][0])
    open("run.folded", "w").write(prof.folded())

``repro profile --deep`` wires this into the CLI; the planning
service's slow-request capture ships :meth:`~DeepProfiler.folded` text
back from workers so a slow request persists ``<request_id>.folded``
next to its Chrome trace.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import PurePath
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "DeepProfiler",
    "NullProfiler",
    "get_profiler",
    "set_profiler",
    "use_profiler",
]

#: Folded stacks are pruned below this weight (seconds): one microsecond,
#: the count unit of the export.
_FOLD_MIN_SECONDS = 1e-6

#: Hard bound on reconstructed stack depth (cycle guard backstop).
_FOLD_MAX_DEPTH = 96

#: Function key in a pstats table: ``(filename, lineno, funcname)``.
_Func = Tuple[str, int, str]


def _frame_label(func: _Func) -> str:
    """Human- and flamegraph-safe label for one pstats function key.

    ``repro/sim/simulator.py:101:run_tour`` style for Python frames;
    built-ins (``filename == "~"``) keep just their function name.
    Spaces and semicolons are rewritten (``_`` / ``,``) because the
    folded format delimits frames with ``;`` and the trailing count
    with a space.
    """
    filename, lineno, funcname = func
    if filename in ("~", ""):
        label = funcname
    else:
        parts = PurePath(filename).parts
        label = f"{'/'.join(parts[-2:])}:{lineno}:{funcname}"
    return label.replace(";", ",").replace(" ", "_")


def _fold_stats(
    stats: Dict[_Func, tuple],
    root_label: str,
    lines: Dict[str, int],
) -> None:
    """Accumulate folded-stack lines for one phase's pstats table.

    ``stats`` is the raw ``pstats.Stats.stats`` mapping ``func -> (cc,
    nc, tt, ct, callers)``.  Every emitted stack starts with
    ``root_label`` (the phase name); counts are integer microseconds
    added into ``lines``.
    """
    callees: Dict[_Func, List[Tuple[_Func, float]]] = {}
    total_in: Dict[_Func, float] = {}
    roots: List[_Func] = []
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        if not callers:
            roots.append(func)
        for caller, edge in callers.items():
            edge_ct = float(edge[3])
            callees.setdefault(caller, []).append((func, edge_ct))
            total_in[func] = total_in.get(func, 0.0) + edge_ct

    def visit(func: _Func, frames: List[str], on_path: set, weight: float) -> None:
        _cc, _nc, tt, ct, _callers = stats[func]
        denom = total_in.get(func) or float(ct) or weight
        share = weight / denom if denom > 0 else 0.0
        self_s = float(tt) * share
        frames = frames + [_frame_label(func)]
        count = int(round(self_s * 1e6))
        if count >= 1:
            stack = ";".join(frames)
            lines[stack] = lines.get(stack, 0) + count
        if len(frames) >= _FOLD_MAX_DEPTH:
            return
        on_path = on_path | {func}
        for callee, edge_ct in sorted(
            callees.get(func, ()), key=lambda item: _frame_label(item[0])
        ):
            if callee in on_path:
                continue  # cycle: attribute nothing further down this edge
            child_weight = edge_ct * share
            if child_weight < _FOLD_MIN_SECONDS:
                continue
            visit(callee, frames, on_path, child_weight)

    for root in sorted(roots, key=_frame_label):
        visit(root, [root_label], set(), float(stats[root][3]))


class DeepProfiler:
    """Per-phase cProfile + tracemalloc attribution.

    Parameters
    ----------
    top:
        Hot-function table length per phase in :meth:`attribution`.
    memory:
        When ``True`` (default), :mod:`tracemalloc` is started lazily on
        the first phase and each phase records its peak traced memory.
        Workers capturing folded stacks only pass ``memory=False`` to
        keep the allocation hook off the request path.

    Phases with the same name merge across invocations (``pstats``
    addition for the profiles, max for the memory peaks, a call count
    per phase), so profiling ``repeat`` runs of one tour still yields
    one table per phase.  Phase windows never nest: cProfile owns the
    interpreter-wide profile hook, so an inner :meth:`phase` inside an
    active one is a transparent no-op.
    """

    _enabled: bool = True

    def __init__(self, top: int = 25, memory: bool = True) -> None:
        if top < 1:
            raise ValueError(f"top must be >= 1, got {top}")
        self._top = top
        self._memory = memory
        self._lock = threading.Lock()
        self._stats: Dict[str, pstats.Stats] = {}
        self._peaks: Dict[str, int] = {}
        self._calls: Dict[str, int] = {}
        self._active: Optional[str] = None
        self._started_tracing = False

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this profiler records anything."""
        return self._enabled

    def phase(self, name: str):
        """Context manager profiling one named phase window.

        Inside the window the code runs under a fresh
        :class:`cProfile.Profile` (merged into the phase's accumulated
        stats on exit, also on exceptions) and, with ``memory`` on, a
        :func:`tracemalloc.reset_peak` window whose peak is folded into
        the phase's ``peak_memory_bytes`` by max.
        """
        if not self._enabled or self._active is not None:
            return nullcontext()
        return self._phase(name)

    @contextmanager
    def _phase(self, name: str) -> Iterator[None]:
        self._active = name
        profile = cProfile.Profile()
        if self._memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracing = True
            tracemalloc.reset_peak()
        try:
            profile.enable()
            try:
                yield
            finally:
                profile.disable()
        finally:
            self._active = None
            peak: Optional[int] = None
            if self._memory and tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1]
            profile.create_stats()
            with self._lock:
                self._calls[name] = self._calls.get(name, 0) + 1
                if peak is not None:
                    self._peaks[name] = max(self._peaks.get(name, 0), peak)
                if name in self._stats:
                    self._stats[name].add(profile)
                else:
                    self._stats[name] = pstats.Stats(profile)

    def close(self) -> None:
        """Stop :mod:`tracemalloc` if this profiler started it.

        Recorded attribution stays readable after closing; only the
        process-wide allocation tracing is released.
        """
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracing = False

    # ------------------------------------------------------------------
    def attribution(self) -> Dict[str, object]:
        """The JSON-ready deep-attribution document.

        ``{"top": N, "memory": bool, "phases": {<name>: {"calls",
        "peak_memory_bytes", "profiled_time_s", "functions",
        "hot_functions"}}}`` — ``hot_functions`` is the top-N table
        sorted by self time, each row carrying ``function`` (label),
        ``calls`` / ``primitive_calls``, ``self_ms``, and
        ``cumulative_ms``.
        """
        with self._lock:
            names = sorted(self._stats)
            phases: Dict[str, object] = {}
            for name in names:
                table = self._stats[name].stats
                rows = [
                    {
                        "function": _frame_label(func),
                        "calls": int(nc),
                        "primitive_calls": int(cc),
                        "self_ms": float(tt) * 1e3,
                        "cumulative_ms": float(ct) * 1e3,
                    }
                    for func, (cc, nc, tt, ct, _callers) in table.items()
                ]
                rows.sort(key=lambda row: (-row["self_ms"], row["function"]))
                phases[name] = {
                    "calls": self._calls.get(name, 0),
                    "peak_memory_bytes": self._peaks.get(name),
                    "profiled_time_s": float(
                        sum(entry[2] for entry in table.values())
                    ),
                    "functions": len(rows),
                    "hot_functions": rows[: self._top],
                }
        return {"top": self._top, "memory": self._memory, "phases": phases}

    def folded(self) -> str:
        """Collapsed-stack text (``phase;frame;... <µs>`` per line).

        Stacks are reconstructed from the caller graph (see the module
        docstring), prefixed with their phase name, deduplicated by
        summing counts, and emitted in sorted order — so two runs of
        the same code fold to diffably-similar text.  Empty when no
        phase was profiled.
        """
        lines: Dict[str, int] = {}
        with self._lock:
            for name in sorted(self._stats):
                _fold_stats(self._stats[name].stats, name, lines)
        return "".join(f"{stack} {count}\n" for stack, count in sorted(lines.items()))


class NullProfiler(DeepProfiler):
    """A profiler that records nothing — the near-free default."""

    _enabled = False

    def __init__(self) -> None:
        super().__init__(top=1, memory=False)

    def phase(self, name: str):
        """Return a shared do-nothing context manager."""
        return nullcontext()


#: The process-global current profiler (module-private; use the accessors).
_profiler: DeepProfiler = NullProfiler()


def get_profiler() -> DeepProfiler:
    """The process-global profiler instrumented code records into."""
    return _profiler


def set_profiler(profiler: DeepProfiler) -> DeepProfiler:
    """Install ``profiler`` globally; returns the previous profiler."""
    global _profiler
    previous = _profiler
    _profiler = profiler
    return previous


@contextmanager
def use_profiler(profiler: DeepProfiler) -> Iterator[DeepProfiler]:
    """Scope ``profiler`` as the global one for a ``with`` block.

    On exit the previous profiler is restored and ``profiler`` is
    :meth:`~DeepProfiler.closed <DeepProfiler.close>` — tracemalloc it
    started stops tracing, while its recorded attribution stays
    readable.
    """
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)
        profiler.close()
