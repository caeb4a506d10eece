"""The perf ledger: record bench documents, render and gate their trend.

``repro bench --record`` appends each benchmark document (the v2,
git-provenance-stamped shape from :mod:`repro.experiments.bench`) to an
append-only ledger directory — ``benchmarks/history/*.json``, one file
per run, named by UTC timestamp + commit + label so a directory listing
*is* the chronology.  :func:`build_trend` aligns documents by the cell
key ``(algorithm, num_sensors, path_length)`` into per-cell series of
wall-clock phases, machine-independent work counters and collected
megabits; :func:`render_trend` draws them as ASCII sparklines with
first→last deltas.

:func:`gate_trend` grades the last K points under one policy, and
``repro bench --compare OLD NEW`` is the same gate over two documents
(:func:`compare_bench`, K = 2):

* a **wall** metric (``wall_s`` and every :data:`WALL_PHASES` entry)
  regresses when it rises by more than :data:`WALL_TOLERANCE` (60 % for
  ``Baseline[*]``) *and* by more than :data:`WALL_NOISE_FLOOR_S`; the
  same fall is an improvement.  Walls gate only between points whose
  recorded ``platform`` and ``python`` match — across machines a wall
  regression is a warning;
* a **work counter** regresses on any rise and improves on any fall; a
  counter that appears or vanishes is a warning (instrumentation, not
  work), and so is a cell missing from part of the window;
* **output** (``collected_megabits``) regresses on any relative drift
  beyond :data:`OUTPUT_TOLERANCE`, either way.

A K-point window flags a metric only when every step moves the same way
and the first→last change crosses the threshold, so one noisy point
never fires; with K = 2 that is a plain pairwise diff.

The module is stdlib-only and does not import the bench machinery —
ledger documents are treated as plain JSON, so trends can be rendered
from any checkout (or none).
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "TREND_FORMAT",
    "TREND_VERSION",
    "DEFAULT_HISTORY_DIR",
    "record_bench",
    "load_history",
    "build_trend",
    "render_trend",
    "gate_trend",
    "compare_bench",
    "sparkline",
]

TREND_FORMAT = "repro.trend"
TREND_VERSION = 1

#: Where ``repro bench --record`` appends documents by default.
DEFAULT_HISTORY_DIR = "benchmarks/history"

#: Ledger files must carry this format marker (kept as a literal so the
#: module stays import-light; mirrors ``repro.experiments.bench.BENCH_FORMAT``).
_BENCH_FORMAT = "repro.bench"

#: Profile phases graded as wall-clock metrics next to ``wall_s``.
#: ``plan_s`` only appears in planner cells; a phase a cell lacks is
#: skipped.
WALL_PHASES: Tuple[str, ...] = (
    "plan_s",
    "instance_build_s",
    "solve_s",
    "verify_s",
    "total_s",
)

#: Relative rise a wall metric must exceed to regress ...
WALL_TOLERANCE = 0.30
#: ... except for the sub-millisecond baselines, which swing hard
#: between runs even above the noise floor ...
BASELINE_WALL_TOLERANCE = 0.60
#: ... and the absolute rise it must exceed as well.
WALL_NOISE_FLOOR_S = 0.010
#: Relative drift of ``collected_megabits`` that counts as a change:
#: the solvers are deterministic given the seed.
OUTPUT_TOLERANCE = 1e-9

_SPARK_CHARS = "▁▂▃▄▅▆▇█"
#: Gate findings, in report order, and their report marks.
_SEVERITIES = ("regression", "warning", "improvement")
_MARKS = {"regression": "✗", "warning": "!", "improvement": "✓"}


# ----------------------------------------------------------------------
# ledger I/O
# ----------------------------------------------------------------------
def record_bench(
    document: Mapping, directory: str = DEFAULT_HISTORY_DIR
) -> Path:
    """Append one bench document to the ledger; returns the new path.

    The document is stamped with a ``recorded_at`` UTC timestamp (kept
    if already present) and written as
    ``<timestamp>-<commit12>[-<label>].json``; existing files are never
    overwritten (a numeric suffix disambiguates collisions) — the
    ledger is append-only.
    """
    if document.get("format") != _BENCH_FORMAT:
        raise ValueError(
            f"not a bench document (format={document.get('format')!r})"
        )
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    doc = dict(document)
    doc.setdefault(
        "recorded_at",
        datetime.now(timezone.utc).isoformat(timespec="microseconds"),
    )
    stamp = re.sub(r"[^0-9TZ]", "", str(doc["recorded_at"]))
    provenance = doc.get("provenance") or {}
    commit = (provenance.get("git_commit") or "nogit")[:12]
    parts = [stamp, commit]
    label = provenance.get("label")
    if label:
        parts.append(re.sub(r"[^A-Za-z0-9._-]+", "-", str(label))[:40])
    stem = "-".join(parts)
    path = root / f"{stem}.json"
    suffix = 1
    while path.exists():
        path = root / f"{stem}-{suffix}.json"
        suffix += 1
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def load_history(directory: str) -> List[Tuple[str, Dict]]:
    """Load the ledger under ``directory`` in chronological order.

    Returns ``(filename, document)`` pairs sorted by ``recorded_at``
    (filename as tie-break).  Files that are not valid JSON bench
    documents are skipped silently — a stray README or a half-written
    file must not take the trend down.  A missing directory is simply
    an empty history.
    """
    root = Path(directory)
    if not root.is_dir():
        return []
    entries: List[Tuple[str, Dict]] = []
    for path in sorted(root.glob("*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict) or doc.get("format") != _BENCH_FORMAT:
            continue
        entries.append((path.name, doc))
    entries.sort(key=lambda entry: (str(entry[1].get("recorded_at") or ""), entry[0]))
    return entries


# ----------------------------------------------------------------------
# trend document
# ----------------------------------------------------------------------
def _cell_key(entry: Mapping) -> Tuple[str, int, float]:
    return (
        str(entry["algorithm"]),
        int(entry["num_sensors"]),
        float(entry["path_length"]),
    )


def _cell_name(key: Tuple[str, int, float]) -> str:
    algorithm, num_sensors, path_length = key
    return f"{algorithm} @ n={num_sensors}, L={path_length:g}"


def _point_label(doc: Mapping, index: int) -> str:
    provenance = doc.get("provenance") or {}
    if provenance.get("label"):
        return str(provenance["label"])
    if provenance.get("git_commit"):
        return str(provenance["git_commit"])[:12]
    if doc.get("recorded_at"):
        return str(doc["recorded_at"])
    return f"#{index}"


def build_trend(
    documents: Sequence[Mapping], files: Optional[Sequence[str]] = None
) -> Dict[str, object]:
    """Align bench documents into one JSON-ready trend document.

    ``documents`` must be in chronological order (what
    :func:`load_history` returns); ``files`` optionally names each
    document's ledger file.  Every ``(algorithm, num_sensors,
    path_length)`` cell seen anywhere becomes a ``cells`` entry whose
    series (``wall_s``, per-phase ``phases``, per-counter ``counters``,
    ``collected_megabits``) hold one value per document — ``None``
    where a document lacks the cell or the metric, so series always
    have ``len(points)`` entries.
    """
    points: List[Dict[str, object]] = []
    indexed: List[Dict[Tuple[str, int, float], Mapping]] = []
    for index, doc in enumerate(documents):
        provenance = doc.get("provenance") or {}
        points.append(
            {
                "label": _point_label(doc, index),
                "recorded_at": doc.get("recorded_at"),
                "git_commit": provenance.get("git_commit"),
                "git_dirty": provenance.get("git_dirty"),
                "seed": doc.get("seed"),
                "repeat": doc.get("repeat"),
                "platform": doc.get("platform"),
                "python": doc.get("python"),
                "file": files[index] if files is not None else None,
            }
        )
        indexed.append({_cell_key(e): e for e in doc.get("entries", ())})

    cell_keys: List[Tuple[str, int, float]] = []
    for by_key in indexed:
        for key in by_key:
            if key not in cell_keys:
                cell_keys.append(key)

    cells: List[Dict[str, object]] = []
    for key in cell_keys:
        entries = [by_key.get(key) for by_key in indexed]
        phase_names = [
            phase
            for phase in WALL_PHASES
            if any(e is not None and phase in e.get("profile", {}) for e in entries)
        ]
        counter_names = sorted(
            {
                name
                for e in entries
                if e is not None
                for name in e.get("counters", {})
            }
        )
        cells.append(
            {
                "algorithm": key[0],
                "num_sensors": key[1],
                "path_length": key[2],
                "cell": _cell_name(key),
                "wall_s": [
                    float(e["wall_s"]) if e is not None else None for e in entries
                ],
                "phases": {
                    phase: [
                        (
                            float(e["profile"][phase])
                            if e is not None and phase in e.get("profile", {})
                            else None
                        )
                        for e in entries
                    ]
                    for phase in phase_names
                },
                "counters": {
                    name: [
                        (
                            float(e["counters"][name])
                            if e is not None and name in e.get("counters", {})
                            else None
                        )
                        for e in entries
                    ]
                    for name in counter_names
                },
                "collected_megabits": [
                    (
                        float(e["collected_megabits"])
                        if e is not None and "collected_megabits" in e
                        else None
                    )
                    for e in entries
                ],
            }
        )
    return {
        "format": TREND_FORMAT,
        "version": TREND_VERSION,
        "points": points,
        "cells": cells,
    }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def sparkline(values: Sequence[Optional[float]]) -> str:
    """One block character per value, min–max normalised; ``·`` for
    missing (``None``) entries, the low block for a constant series."""
    present = [v for v in values if v is not None]
    if not present:
        return "·" * len(values)
    lo, hi = min(present), max(present)
    span = hi - lo
    out = []
    for value in values:
        if value is None:
            out.append("·")
        elif span <= 0:
            out.append(_SPARK_CHARS[0])
        else:
            index = min(len(_SPARK_CHARS) - 1, int((value - lo) / span * len(_SPARK_CHARS)))
            out.append(_SPARK_CHARS[index])
    return "".join(out)


def _endpoints(values: Sequence[Optional[float]]) -> Tuple[Optional[float], Optional[float]]:
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    return present[0], present[-1]


def _delta_suffix(first: Optional[float], last: Optional[float]) -> str:
    if first is None or last is None:
        return ""
    if first == 0:
        return ""
    return f"  ({(last - first) / first:+.1%})"


def _metric_row(name: str, values: Sequence[Optional[float]], unit: str) -> str:
    first, last = _endpoints(values)

    def fmt(value: Optional[float]) -> str:
        if value is None:
            return "-"
        if unit == "ms":
            return f"{value * 1e3:.1f} ms"
        if unit == "Mb":
            return f"{value:.2f} Mb"
        return f"{value:g}"

    return (
        f"  {name:<24} {sparkline(values)}  "
        f"{fmt(first)} -> {fmt(last)}{_delta_suffix(first, last)}"
    )


def render_trend(trend: Mapping) -> str:
    """Human-readable trajectory report of one :func:`build_trend` doc.

    One block per cell: sparkline + first→last (+delta%) rows for
    ``wall_s``, every present wall phase, collected megabits, and the
    work counters whose values actually changed across the window
    (constant counters are summarised in one line — they are the
    healthy case).  When the document carries a :func:`gate_trend`
    verdict under ``"gate"``, its findings follow (regressions, then
    warnings, then improvements) and the report ends in
    ``verdict: OK|REGRESSION``.
    """
    points = trend["points"]
    lines = [f"perf trajectory: {len(points)} points, {len(trend['cells'])} cells"]
    for index, point in enumerate(points):
        bits = [str(point["label"])]
        if point.get("recorded_at"):
            bits.append(str(point["recorded_at"]))
        if point.get("git_dirty"):
            bits.append("dirty")
        lines.append(f"  [{index}] {' · '.join(bits)}")
    for cell in trend["cells"]:
        lines.append("")
        lines.append(f"{cell['cell']}:")
        lines.append(_metric_row("wall_s", cell["wall_s"], "ms"))
        for phase, series in cell["phases"].items():
            lines.append(_metric_row(phase, series, "ms"))
        lines.append(
            _metric_row("collected_megabits", cell["collected_megabits"], "Mb")
        )
        constant = 0
        for name, series in cell["counters"].items():
            present = [v for v in series if v is not None]
            if len(set(present)) > 1:
                lines.append(_metric_row(name, series, ""))
            else:
                constant += 1
        if constant:
            lines.append(f"  ({constant} work counters unchanged)")
    gate = trend.get("gate")
    if gate is not None:
        findings = sorted(
            gate["findings"], key=lambda f: _SEVERITIES.index(f["severity"])
        )
        lines.append("")
        for f in findings:
            lines.append(
                f"{_MARKS[f['severity']]} [{f['severity']}] {f['cell']} "
                f"{f['metric']}: {f['detail']}"
            )
        counts = ", ".join(
            f"{sum(f['severity'] == s for f in findings)} {s}s" for s in _SEVERITIES
        )
        scope = (
            "" if gate["walls_gated"]
            else "; walls warn only (platform or python differs)"
        )
        if len(points) < gate["window"]:
            scope = f"; nothing graded, {len(points)} points recorded"
        lines.append(f"gate over the last {gate['window']} points: {counts}{scope}")
        lines.append("verdict: " + ("OK" if gate["ok"] else "REGRESSION"))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# gating
# ----------------------------------------------------------------------
def _direction(window: Sequence[float]) -> int:
    """+1 when every step of ``window`` rises, -1 when every step falls,
    else 0."""
    steps = [b - a for a, b in zip(window, window[1:])]
    if all(step > 0 for step in steps):
        return 1
    if all(step < 0 for step in steps):
        return -1
    return 0


def gate_trend(trend: Mapping, last: int = 3) -> Dict[str, object]:
    """Grade the trend's last ``last`` points under the module's policy.

    Every cell present at all ``last`` points is graded metric by
    metric (wall, counter, output; see the module docstring); a cell
    present at only some of them is a warning.  With fewer than
    ``last`` points nothing is graded: a trend gate needs a trend.
    Returns ``{"ok", "window", "walls_gated", "findings"}``, JSON-ready;
    ``ok`` is false iff some finding has severity ``regression``, and
    ``walls_gated`` is false when the window spans more than one
    ``(platform, python)``.
    """
    if last < 2:
        raise ValueError(f"last must be >= 2, got {last}")
    points = trend["points"][-last:]
    start = len(trend["points"]) - len(points)
    cells = trend["cells"] if len(points) == last else []
    walls_gated = len({(p.get("platform"), p.get("python")) for p in points}) <= 1
    findings: List[Dict[str, object]] = []

    def flag(kind: str, severity: str, cell: str, metric: str,
             window: Sequence, detail: str) -> None:
        findings.append(
            {
                "kind": kind,
                "severity": severity,
                "cell": cell,
                "metric": metric,
                "window": list(window),
                "detail": detail,
            }
        )

    seeds = [p.get("seed") for p in points]
    if cells and len(set(seeds)) > 1:
        flag("document", "warning", "(document)", "seed", seeds,
             "seeds differ: counter and output comparisons are not "
             "meaningful across different topologies")

    for cell in cells:
        name = cell["cell"]
        window = cell["wall_s"][-last:]
        if None in window:
            missing = [start + i for i, v in enumerate(window) if v is None]
            if len(missing) < last:
                flag("cell", "warning", name, "cell", window,
                     f"cell absent from point(s) {missing}")
            continue

        tolerance = (
            BASELINE_WALL_TOLERANCE
            if cell["algorithm"].startswith("Baseline[")
            else WALL_TOLERANCE
        )
        for metric, series in [("wall_s", cell["wall_s"]), *cell["phases"].items()]:
            window = series[-last:]
            if None in window:
                continue
            old, new = window[0], window[-1]
            low, high = sorted((old, new))
            direction = _direction(window)
            if (
                not direction
                or high <= low * (1.0 + tolerance)
                or high - low <= WALL_NOISE_FLOOR_S
            ):
                continue
            chain = " -> ".join(f"{v * 1e3:.1f} ms" for v in window)
            if direction < 0:
                flag("wall", "improvement", name, metric, window,
                     f"{chain} ({(new - old) / old:+.0%})")
                continue
            detail = (
                f"{chain} (+{(new - old) / old:.0%} > +{tolerance:.0%}, "
                f"floor {WALL_NOISE_FLOOR_S * 1e3:.0f} ms)"
            )
            if walls_gated:
                flag("wall", "regression", name, metric, window, detail)
            else:
                flag("wall", "warning", name, metric, window,
                     detail + "; platform or python differs, not gated")

        for metric, series in cell["counters"].items():
            window = series[-last:]
            old, new = window[0], window[-1]
            if (old or 0.0) == (new or 0.0):
                continue
            if old and not new:
                flag("counter", "warning", name, metric, window,
                     f"counter vanished ({old:g} -> 0); lost instrumentation?")
            elif old is None:
                flag("counter", "warning", name, metric, window,
                     f"counter appeared (absent -> {new:g}); new instrumentation?")
            elif None not in window and _direction(window):
                chain = " -> ".join(f"{v:g}" for v in window)
                drift = (new - old) / old if old else float("inf")
                if new > old:
                    flag("counter", "regression", name, metric, window,
                         f"{chain} ({drift:+.1%} work, exact-match gate)")
                else:
                    flag("counter", "improvement", name, metric, window,
                         f"{chain} ({drift:+.1%} work)")

        window = cell["collected_megabits"][-last:]
        if None not in window and _direction(window):
            old, new = window[0], window[-1]
            if abs(new - old) / max(abs(old), abs(new), 1e-30) > OUTPUT_TOLERANCE:
                flag("output", "regression", name, "collected_megabits", window,
                     "deterministic output drifted: "
                     + " -> ".join(repr(v) for v in window))

    return {
        "ok": not any(f["severity"] == "regression" for f in findings),
        "window": last,
        "walls_gated": walls_gated,
        "findings": findings,
    }


def compare_bench(
    old_doc: Mapping, new_doc: Mapping, files: Optional[Sequence[str]] = None
) -> Dict[str, object]:
    """``repro bench --compare``: the two-point trend ``old_doc`` →
    ``new_doc`` with its :func:`gate_trend` verdict (``last=2``) under
    ``"gate"``."""
    trend = build_trend([old_doc, new_doc], files=files)
    trend["gate"] = gate_trend(trend, last=2)
    return trend
