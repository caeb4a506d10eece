#!/usr/bin/env python
"""Reproduce all three evaluation figures in one run (reduced scale).

Runs Figures 2–4 at a laptop-friendly scale (3 topologies per point,
n ∈ {100, 300, 600}) and prints the same series tables + ASCII charts
the full harness produces.  For the paper's full methodology, with
each figure's claim rows, use ``python -m repro figN --repeats 50``.

Run:  python examples/reproduce_figures.py
"""

from __future__ import annotations

import time

from repro.experiments import fig2, fig3, fig4

SIZES = (100, 300, 600)
REPEATS = 3


def main() -> None:
    for module in (fig2, fig3, fig4):
        t0 = time.perf_counter()
        result = module.run(repeats=REPEATS, sizes=SIZES)
        print(module.report(result))
        print(f"({len(result.records)} records in {time.perf_counter() - t0:.1f} s)")
        print("=" * 72)


if __name__ == "__main__":
    main()
