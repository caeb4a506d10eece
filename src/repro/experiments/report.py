"""Plain-text reporting of sweep results.

The paper's figures are line charts of throughput vs network size; we
render the same series as aligned ASCII tables (one per panel) so the
reproduction is inspectable in any terminal and diffable in CI logs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.ascii_chart import ascii_chart
from repro.experiments.sweep import Claim, SweepResult, aggregate

__all__ = ["format_series_table", "format_series_chart", "format_records", "format_claims"]


def format_series_table(
    result: SweepResult,
    x_key: str = "n",
    panel_key: Optional[str] = "panel",
    value: str = "collected_megabits",
    unit: str = "Mb",
) -> str:
    """Render one table per panel: rows = algorithms, columns = x values.

    Cells show ``mean±std`` of ``value`` over the repeats.
    """
    lines: List[str] = []
    panels = result.label_values(panel_key) if panel_key else [None]
    for panel in panels:
        subset = result.filter(**{panel_key: panel}) if panel_key and panel is not None else result
        xs = subset.label_values(x_key)
        stats = aggregate(subset, [x_key], value=value)
        algorithms = subset.algorithms()
        header = f"[{panel}]  ({value}, {unit})" if panel is not None else f"({value}, {unit})"
        lines.append(header)
        col_width = 16
        name_width = max([len(a) for a in algorithms] + [10]) + 2
        lines.append(
            " " * name_width + "".join(f"{x_key}={x!s:<{col_width - 3}}" for x in xs)
        )
        for name in algorithms:
            cells = []
            for x in xs:
                entry = stats.get((x,), {}).get(name)
                if entry is None:
                    cells.append(f"{'-':<{col_width}}")
                else:
                    mean, std, _ = entry
                    cells.append(f"{mean:9.2f}±{std:<{col_width - 10}.2f}")
            lines.append(f"{name:<{name_width}}" + "".join(cells))
        lines.append("")
    return "\n".join(lines)


def format_series_chart(
    result: SweepResult,
    x_key: str = "n",
    panel_key: Optional[str] = "panel",
    value: str = "collected_megabits",
    width: int = 56,
    height: int = 12,
) -> str:
    """Render each panel's series as an ASCII line chart.

    Panels whose x axis has a single point are skipped (nothing to
    draw); numeric x values are required.
    """
    chunks: List[str] = []
    panels = result.label_values(panel_key) if panel_key else [None]
    for panel in panels:
        subset = (
            result.filter(**{panel_key: panel})
            if panel_key and panel is not None
            else result
        )
        xs = subset.label_values(x_key)
        if len(xs) < 2 or not all(isinstance(x, (int, float)) for x in xs):
            continue
        stats = aggregate(subset, [x_key], value=value)
        series = {}
        for name in subset.algorithms():
            ys = [stats.get((x,), {}).get(name, (float("nan"),))[0] for x in xs]
            if all(np.isfinite(ys)):
                series[name] = ys
        if not series:
            continue
        title = f"[{panel}]" if panel is not None else ""
        chunks.append(
            title
            + "\n"
            + ascii_chart(
                [float(x) for x in xs],
                series,
                width=width,
                height=height,
                y_label=value,
                x_label=x_key,
            )
        )
    return "\n\n".join(chunks)


def format_records(result: SweepResult, limit: int = 20) -> str:
    """Raw record dump (first ``limit``), for debugging."""
    lines = []
    for r in result.records[:limit]:
        lab = ", ".join(f"{k}={v}" for k, v in r.label)
        lines.append(
            f"{lab} | {r.algorithm:<18} rep={r.repeat} "
            f"{r.collected_megabits:9.2f} Mb  {r.wall_time * 1e3:7.1f} ms"
        )
    if len(result.records) > limit:
        lines.append(f"... ({len(result.records) - limit} more records)")
    return "\n".join(lines)


def format_claims(claims: Sequence[Claim]) -> str:
    """One ``PASS``/``FAIL`` line per claim with its measured value, and
    a closing verdict naming the failed claims."""
    width = max((len(c.name) for c in claims), default=0)
    lines = ["Claims:"]
    for c in claims:
        value = "vacuous (not swept)" if c.value is None else f"{c.value:.4g}"
        lines.append(f"  {'PASS' if c.held else 'FAIL'}  {c.name:<{width}}  {value}")
    failed = [c.name for c in claims if not c.held]
    if failed:
        lines.append(f"{len(failed)} of {len(claims)} claims failed: {', '.join(failed)}")
    else:
        lines.append(f"all {len(claims)} claims held")
    return "\n".join(lines)
