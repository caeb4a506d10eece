"""Bench-document diff engine behind ``repro bench --compare``.

:func:`compare_bench` aligns two :func:`repro.experiments.bench.run_bench`
documents cell by cell — a cell is ``(algorithm, num_sensors,
path_length)`` — and grades three families of differences:

* **wall-clock timers** (``wall_s`` plus every shared ``profile``
  phase): noisy and machine-dependent, so a cell only regresses when
  the new time exceeds the old by a *relative* tolerance (default 30 %,
  overridable per algorithm) **and** by an absolute noise floor
  (default 10 ms) — sub-floor jitter on a fast baseline never fails a
  build;
* **work counters** (``knapsack.calls``, ``matching.calls``, DP cell
  counts, …): machine-independent, so the default tolerance is **exact
  match** (0 % drift).  More work than before is a regression; less
  work is reported as an improvement; a counter that disappears
  entirely — or appears out of nowhere — is a warning (likely lost or
  added instrumentation, not a work change);
* **output** (``collected_megabits``): the solvers are deterministic
  given the seed, so any relative drift beyond ``output_tolerance``
  (default 1e-9) is a correctness regression, not noise.

The comparison is a plain JSON-ready dict (``format:
"repro.bench_compare"``); :func:`render_comparison` renders it as an
ASCII or GitHub-markdown report with per-phase deltas for every
matched cell.  ``wall_warn_only`` demotes wall regressions to warnings
— what CI uses on shared runners, where counters stay a hard gate but
wall-clock numbers only annotate the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "COMPARE_FORMAT",
    "COMPARE_VERSION",
    "CompareConfig",
    "compare_bench",
    "render_comparison",
]

COMPARE_FORMAT = "repro.bench_compare"
COMPARE_VERSION = 1

#: Profile phases compared as wall-clock metrics (plus ``wall_s``).
#: ``plan_s`` only appears in planner cells; unmatched phases are
#: skipped per cell, so plain solver cells are unaffected.
WALL_PHASES: Tuple[str, ...] = (
    "plan_s",
    "instance_build_s",
    "solve_s",
    "verify_s",
    "total_s",
)

#: Built-in per-algorithm wall tolerances for cells noisier than the
#: default allows.  The sub-millisecond baselines swing relatively hard
#: between runs; the noise floor already mutes most of it, but give
#: them headroom for the floor-crossing cases too.
DEFAULT_WALL_TOLERANCES: Mapping[str, float] = {
    "Baseline[greedy_density]": 0.60,
    "Baseline[greedy_profit]": 0.60,
    "Baseline[random]": 0.60,
    "Baseline[round_robin]": 0.60,
}


@dataclass(frozen=True)
class CompareConfig:
    """Thresholds governing one :func:`compare_bench` run.

    ``wall_tolerance`` is the default relative wall-clock increase
    allowed before a regression; ``per_algorithm_wall_tolerance``
    overrides it per algorithm (merged over
    :data:`DEFAULT_WALL_TOLERANCES`).  ``wall_noise_floor_s`` is the
    absolute increase a wall metric must also exceed.
    ``counter_tolerance`` bounds relative counter drift (0 = exact
    match).  ``wall_warn_only`` downgrades wall regressions to
    warnings so only counter/output regressions gate.
    """

    wall_tolerance: float = 0.30
    wall_noise_floor_s: float = 0.010
    counter_tolerance: float = 0.0
    output_tolerance: float = 1e-9
    wall_warn_only: bool = False
    per_algorithm_wall_tolerance: Mapping[str, float] = field(default_factory=dict)

    def wall_tolerance_for(self, algorithm: str) -> float:
        """The relative wall threshold applying to ``algorithm``."""
        if algorithm in self.per_algorithm_wall_tolerance:
            return self.per_algorithm_wall_tolerance[algorithm]
        return DEFAULT_WALL_TOLERANCES.get(algorithm, self.wall_tolerance)


def _cell_key(entry: Mapping) -> Tuple[str, int, float]:
    return (
        str(entry["algorithm"]),
        int(entry["num_sensors"]),
        float(entry["path_length"]),
    )


def _cell_name(key: Tuple[str, int, float]) -> str:
    algorithm, num_sensors, path_length = key
    return f"{algorithm} @ n={num_sensors}, L={path_length:g}"


def _finding(
    kind: str,
    severity: str,
    cell: str,
    metric: str,
    old: float,
    new: float,
    detail: str,
) -> Dict[str, object]:
    return {
        "kind": kind,
        "severity": severity,
        "cell": cell,
        "metric": metric,
        "old": old,
        "new": new,
        "delta": new - old,
        "ratio": (new / old) if old else None,
        "detail": detail,
    }


def _compare_wall(
    cell: str,
    metric: str,
    old: float,
    new: float,
    tolerance: float,
    floor: float,
) -> Optional[Dict[str, object]]:
    """Grade one wall-clock metric; ``None`` when within thresholds."""
    if new > old * (1.0 + tolerance) and (new - old) > floor:
        return _finding(
            "wall",
            "regression",
            cell,
            metric,
            old,
            new,
            f"{old * 1e3:.1f} ms -> {new * 1e3:.1f} ms "
            f"(+{(new - old) / old:.0%} > +{tolerance:.0%}, "
            f"floor {floor * 1e3:.0f} ms)",
        )
    if old > new * (1.0 + tolerance) and (old - new) > floor:
        return _finding(
            "wall",
            "improvement",
            cell,
            metric,
            old,
            new,
            f"{old * 1e3:.1f} ms -> {new * 1e3:.1f} ms "
            f"({(new - old) / old:+.0%})",
        )
    return None


def _compare_counters(
    cell: str,
    old_counters: Mapping[str, float],
    new_counters: Mapping[str, float],
    tolerance: float,
) -> List[Dict[str, object]]:
    findings: List[Dict[str, object]] = []
    for name in sorted(set(old_counters) | set(new_counters)):
        old = float(old_counters.get(name, 0.0))
        new = float(new_counters.get(name, 0.0))
        if old == new:
            continue
        if new == 0.0 and old > 0.0:
            findings.append(
                _finding(
                    "counter",
                    "warning",
                    cell,
                    name,
                    old,
                    new,
                    f"counter vanished ({old:g} -> 0); lost instrumentation?",
                )
            )
            continue
        if name not in old_counters:
            # Symmetric to vanishing: a counter the old document never
            # recorded is new instrumentation, not new work — warn so
            # it is visible, but don't gate on it.
            findings.append(
                _finding(
                    "counter",
                    "warning",
                    cell,
                    name,
                    old,
                    new,
                    f"counter appeared (absent -> {new:g}); new instrumentation?",
                )
            )
            continue
        drift = (new - old) / old if old else float("inf")
        if abs(drift) <= tolerance:
            continue
        if new > old:
            detail = (
                f"{old:g} -> {new:g} (+{drift:.1%} work"
                + (f", tolerance {tolerance:.1%})" if tolerance else ", exact-match gate)")
            )
            findings.append(
                _finding("counter", "regression", cell, name, old, new, detail)
            )
        else:
            findings.append(
                _finding(
                    "counter",
                    "improvement",
                    cell,
                    name,
                    old,
                    new,
                    f"{old:g} -> {new:g} ({drift:.1%} work)",
                )
            )
    return findings


def compare_bench(
    old_doc: Mapping,
    new_doc: Mapping,
    config: Optional[CompareConfig] = None,
) -> Dict[str, object]:
    """Diff two bench documents; returns the JSON-ready comparison.

    Cells are aligned by ``(algorithm, num_sensors, path_length)``;
    cells present in only one document are listed under
    ``unmatched_old`` / ``unmatched_new`` (a warning, not a failure).
    The verdict is ``ok: true`` iff no finding has severity
    ``regression``.
    """
    config = config or CompareConfig()
    old_cells = {_cell_key(e): e for e in old_doc.get("entries", ())}
    new_cells = {_cell_key(e): e for e in new_doc.get("entries", ())}
    matched = [key for key in old_cells if key in new_cells]
    findings: List[Dict[str, object]] = []
    cells: List[Dict[str, object]] = []

    if old_doc.get("seed") != new_doc.get("seed"):
        findings.append(
            _finding(
                "document",
                "warning",
                "(document)",
                "seed",
                float(old_doc.get("seed") or 0),
                float(new_doc.get("seed") or 0),
                "seeds differ: counter and output comparisons are not "
                "meaningful across different topologies",
            )
        )

    for key in sorted(matched):
        cell = _cell_name(key)
        old_entry, new_entry = old_cells[key], new_cells[key]
        tolerance = config.wall_tolerance_for(key[0])

        wall_metrics: List[Dict[str, object]] = []
        old_profile = old_entry.get("profile", {})
        new_profile = new_entry.get("profile", {})
        pairs = [("wall_s", old_entry.get("wall_s"), new_entry.get("wall_s"))]
        pairs += [
            (phase, old_profile.get(phase), new_profile.get(phase))
            for phase in WALL_PHASES
            if phase in old_profile and phase in new_profile
        ]
        for metric, old, new in pairs:
            if old is None or new is None:
                continue
            old, new = float(old), float(new)
            verdict = _compare_wall(
                cell, metric, old, new, tolerance, config.wall_noise_floor_s
            )
            if verdict is not None:
                if verdict["severity"] == "regression" and config.wall_warn_only:
                    verdict = {**verdict, "severity": "warning"}
                findings.append(verdict)
            wall_metrics.append(
                {
                    "metric": metric,
                    "old_s": old,
                    "new_s": new,
                    "delta_s": new - old,
                    "ratio": (new / old) if old else None,
                    "verdict": verdict["severity"] if verdict else "ok",
                }
            )

        findings.extend(
            _compare_counters(
                cell,
                old_entry.get("counters", {}),
                new_entry.get("counters", {}),
                config.counter_tolerance,
            )
        )

        old_mb = float(old_entry.get("collected_megabits", 0.0))
        new_mb = float(new_entry.get("collected_megabits", 0.0))
        scale = max(abs(old_mb), abs(new_mb), 1e-30)
        if abs(new_mb - old_mb) / scale > config.output_tolerance:
            findings.append(
                _finding(
                    "output",
                    "regression",
                    cell,
                    "collected_megabits",
                    old_mb,
                    new_mb,
                    f"deterministic output drifted: {old_mb!r} -> {new_mb!r}",
                )
            )

        cells.append(
            {
                "algorithm": key[0],
                "num_sensors": key[1],
                "path_length": key[2],
                "cell": cell,
                "wall_tolerance": tolerance,
                "wall": wall_metrics,
            }
        )

    def _doc_meta(doc: Mapping) -> Dict[str, object]:
        return {
            "seed": doc.get("seed"),
            "python": doc.get("python"),
            "platform": doc.get("platform"),
            "repeat": doc.get("repeat", 1),
            "provenance": doc.get("provenance"),
        }

    regressions = [f for f in findings if f["severity"] == "regression"]
    return {
        "format": COMPARE_FORMAT,
        "version": COMPARE_VERSION,
        "old": _doc_meta(old_doc),
        "new": _doc_meta(new_doc),
        "config": {
            "wall_tolerance": config.wall_tolerance,
            "wall_noise_floor_s": config.wall_noise_floor_s,
            "counter_tolerance": config.counter_tolerance,
            "output_tolerance": config.output_tolerance,
            "wall_warn_only": config.wall_warn_only,
        },
        "cells": cells,
        "unmatched_old": [_cell_name(k) for k in sorted(old_cells) if k not in new_cells],
        "unmatched_new": [_cell_name(k) for k in sorted(new_cells) if k not in old_cells],
        "findings": findings,
        "regressions": regressions,
        "improvements": [f for f in findings if f["severity"] == "improvement"],
        "warnings": [f for f in findings if f["severity"] == "warning"],
        "ok": not regressions,
    }


_MARKS = {"regression": "✗", "improvement": "✓", "warning": "!", "ok": ""}


def _provenance_line(meta: Mapping) -> str:
    provenance = meta.get("provenance") or {}
    commit = provenance.get("git_commit") or "unknown"
    bits = [commit[:12] if isinstance(commit, str) else str(commit)]
    if provenance.get("git_dirty"):
        bits.append("dirty")
    if provenance.get("label"):
        bits.append(str(provenance["label"]))
    if meta.get("python"):
        bits.append(f"py{meta['python']}")
    if meta.get("repeat", 1) and meta.get("repeat", 1) > 1:
        bits.append(f"repeat={meta['repeat']}")
    return " ".join(bits)


def render_comparison(comparison: Mapping, markdown: bool = False) -> str:
    """ASCII (or GitHub-markdown) report of one :func:`compare_bench`.

    Per-phase wall deltas for every matched cell, then the graded
    findings (counter/output regressions first), then the verdict line.
    """
    lines: List[str] = []
    head = "## bench compare" if markdown else "bench compare"
    lines.append(head)
    lines.append(f"old: {_provenance_line(comparison['old'])}")
    lines.append(f"new: {_provenance_line(comparison['new'])}")
    lines.append("")

    if markdown:
        lines.append("| cell | metric | old ms | new ms | delta | |")
        lines.append("|---|---|---:|---:|---:|---|")
    else:
        lines.append(
            f"{'cell':<42} {'metric':<18} {'old ms':>9} {'new ms':>9} {'delta':>8}"
        )
    for cell in comparison["cells"]:
        for wall in cell["wall"]:
            ratio = wall["ratio"]
            delta = f"{ratio - 1.0:+.0%}" if ratio is not None else "n/a"
            mark = _MARKS.get(wall["verdict"], "")
            if markdown:
                lines.append(
                    f"| {cell['cell']} | {wall['metric']} "
                    f"| {wall['old_s'] * 1e3:.1f} | {wall['new_s'] * 1e3:.1f} "
                    f"| {delta} | {mark} |"
                )
            else:
                lines.append(
                    f"{cell['cell']:<42} {wall['metric']:<18} "
                    f"{wall['old_s'] * 1e3:>9.1f} {wall['new_s'] * 1e3:>9.1f} "
                    f"{delta:>8} {mark}"
                )
    lines.append("")

    for name in ("unmatched_old", "unmatched_new"):
        for cell in comparison[name]:
            where = "old" if name.endswith("old") else "new"
            lines.append(f"! cell only in {where} document: {cell}")

    ordered = sorted(
        comparison["findings"],
        key=lambda f: ("regression", "warning", "improvement").index(f["severity"])
        if f["severity"] in ("regression", "warning", "improvement")
        else 3,
    )
    for finding in ordered:
        mark = _MARKS.get(finding["severity"], "?")
        lines.append(
            f"{mark} [{finding['severity']}] {finding['cell']} "
            f"{finding['metric']}: {finding['detail']}"
        )
    if ordered:
        lines.append("")

    summary = (
        f"{len(comparison['cells'])} cells compared: "
        f"{len(comparison['regressions'])} regressions, "
        f"{len(comparison['improvements'])} improvements, "
        f"{len(comparison['warnings'])} warnings"
    )
    lines.append(summary)
    lines.append("verdict: " + ("OK" if comparison["ok"] else "REGRESSION"))
    return "\n".join(lines)
