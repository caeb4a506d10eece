"""Metric names and units, read from ``BENCHMARK.json``, and the span
names the traced runs attribute to each per-layer metric."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

#: Span name -> per-layer metric holding its self time (ms per operation).
SPAN_METRIC = {
    "sim.scenario.build": "sim.scenario.build_ms",
    "core.instance.build": "core.instance.build_ms",
    "core.offline_appro.solve": "core.offline_appro.solve_ms",
    "online.online_appro.solve": "online.online_appro.solve_ms",
    "core.offline_maxmatch.solve": "core.offline_maxmatch.solve_ms",
    "online.online_maxmatch.solve": "online.online_maxmatch.solve_ms",
    "core.allocation.verify": "core.allocation.verify_ms",
    "core.lp.bound": "core.lp.bound_ms",
    "verify.certificate.certify": "verify.certificate.certify_ms",
    "energy.update": "energy.update_ms",
    "sim.run_tour": "sim.run_tour.self_ms",
    "service.schema.validate": "service.schema.validate_ms",
    "service.encode": "service.encode_ms",
    "bench.op": "bench.self_ms",
}

#: The benchmark's root span around one operation.  Its self time is the
#: part of the operation that no program layer's span covers.
BENCH_SPAN = "bench.op"

#: Program counter (recording registry / ``/metrics`` name) -> per-layer
#: metric holding its count per operation.
COUNTER_METRIC = {
    "knapsack.calls": "core.knapsack.calls",
    "gap.local_ratio_rounds": "core.gap.local_ratio_rounds",
    "online.messages": "online.framework.messages",
    "matching.calls": "core.matching.calls",
    "matching.edges": "core.matching.edges",
    "mcmf.solves": "core.mcmf.solves",
    "mcmf.augmentations": "core.mcmf.augmentations",
    "lp.calls": "core.lp.calls",
}


#: Per-layer metrics only the service workload measures.
SERVICE_ONLY = (
    "service.worker.compute_ms",
    "service.executor.wait_ms",
    "service.executor.queue_ipc_ms",
    "service.executor.rejected",
    "service.cache.hit_ratio",
    "service.server.request_ms",
    "service.cached_p50_ms",
    "loadgen.lag_p99_ms",
)


def load(root: Path) -> Dict:
    """The benchmark definition at the root of the checkout."""
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(definition: Dict, trace: bool) -> Dict[str, str]:
    """Metric name -> unit for the metrics a run in this mode reports."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in definition[key]}


def layer_metrics(
    self_seconds: Dict[str, float], counters: Dict[str, float], ops: int
) -> Dict[str, float]:
    """Per-operation layer metrics from span self times and counter
    totals; layers that never ran read 0."""
    out = {metric: 0.0 for metric in SPAN_METRIC.values()}
    out.update({metric: 0.0 for metric in COUNTER_METRIC.values()})
    out.update({metric: 0.0 for metric in SERVICE_ONLY})
    for span, seconds in self_seconds.items():
        out[SPAN_METRIC[span]] += seconds * 1e3 / ops
    for counter, metric in COUNTER_METRIC.items():
        out[metric] = counters.get(counter, 0.0) / ops
    rounds = counters.get("online.probe_rounds", 0.0)
    out["online.framework.empty_interval_share"] = (
        counters.get("online.empty_intervals", 0.0) / rounds if rounds else 0.0
    )
    return out


def layer_sum(self_seconds: Dict[str, float]) -> float:
    """Total self time of the program's layers: every span but the
    benchmark's own."""
    return sum(seconds for span, seconds in self_seconds.items() if span != BENCH_SPAN)


def missing(reported: Dict[str, float], expected: List[str]) -> List[str]:
    """Expected metric names absent from a report."""
    return [name for name in expected if name not in reported]
