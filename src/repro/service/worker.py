"""The solve executed inside pool worker processes.

:func:`solve_payload` is the single module-level function the
:class:`~repro.service.executor.JobExecutor` ships to workers — it must
stay importable and take/return only picklable plain data (dicts,
lists, scalars), because payloads and results cross the process
boundary.  It rebuilds the scenario from the validated request payload,
computes the LP upper bound, runs the requested algorithm with
``mutate=False`` (solves are pure; this is what makes results
cacheable), and flattens everything into the JSON response body.

Worker processes have their own process-global registry, so the solve
runs under a **local recording registry** whose :meth:`~repro.obs.registry.MetricsRegistry.dump`
travels back in the result under :data:`WORKER_METRICS_KEY`; the
executor folds it into the parent's service registry (real timer
observations, not summaries), which is how ``GET /metrics`` sees
solver-phase costs (``offline_appro.local_ratio``, ``matching.lp`` …)
under load.  When the payload carries ``"trace": true`` the solve also
runs under a recording :class:`~repro.obs.tracing.Tracer` (span events
come back under :data:`TRACE_EVENTS_KEY`) and a
:class:`~repro.obs.profiling.DeepProfiler` (flamegraph-folded stacks
come back under :data:`FOLDED_STACKS_KEY`) for slow-request capture.
All three keys are internal: the server strips them from
client-visible response bodies.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import List

from repro.core.instance import DataCollectionInstance
from repro.core.lp import dcmp_lp_upper_bound
from repro.obs.profiling import DeepProfiler, use_profiler
from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.tracing import Tracer, use_tracer
from repro.sim.algorithms import get_algorithm
from repro.sim.batch import TourSpec, solve_by_deployment
from repro.sim.scenario import Scenario, ScenarioConfig
from repro.sim.simulator import run_tour
from repro.verify.certificate import certify

__all__ = [
    "solve_payload",
    "solve_batch_payload",
    "WORKER_METRICS_KEY",
    "TRACE_EVENTS_KEY",
    "FOLDED_STACKS_KEY",
]

#: Result key carrying the worker registry dump (internal; stripped
#: from client responses after the executor merges it).
WORKER_METRICS_KEY = "worker_metrics"

#: Result key carrying captured span events (internal; stripped from
#: client responses after slow-request trace persistence).
TRACE_EVENTS_KEY = "trace_events"

#: Result key carrying flamegraph-folded stack text (internal; stripped
#: from client responses after slow-request folded-stack persistence).
FOLDED_STACKS_KEY = "folded_stacks"


def _solve_one(
    spec: TourSpec, scenario: Scenario, instance: DataCollectionInstance
) -> dict:
    """One solve over a prepared deployment: the per-solve response document.

    The LP bound is priced before the tour and the certificate made
    after it, both outside ``tour.total``, so the worker timers
    ``tour.total``, ``lp.dcmp_bound`` and ``verify.certify`` stay
    disjoint.  The bound is memoised on the shared instance: the first
    solve of a deployment pays for it, the rest (and the certificate)
    reuse it.
    """
    lp_bound_bits = dcmp_lp_upper_bound(instance)
    result = run_tour(
        scenario, get_algorithm(spec.algorithm), mutate=False, instance=instance
    )
    certificate = None
    if spec.certify:
        certificate = certify(instance, result.allocation, algorithm=spec.algorithm)
    messages = result.messages.summary() if result.messages is not None else None
    doc = {
        "algorithm": spec.algorithm,
        "seed": spec.seed,
        "scenario": spec.config.to_dict(),
        "collected_bits": float(result.collected_bits),
        "collected_megabits": float(result.collected_megabits),
        "lp_bound_bits": lp_bound_bits,
        "lp_bound_fraction": (
            float(result.collected_bits) / lp_bound_bits if lp_bound_bits else 0.0
        ),
        "num_slots": int(instance.num_slots),
        "gamma": int(scenario.gamma),
        "schedule": [int(owner) for owner in result.allocation.slot_owner],
        "total_energy_spent_j": float(result.total_energy_spent),
        "messages": messages,
        "profile": {k: float(v) for k, v in result.profile.items()},
    }
    if scenario.plan is not None:
        # Summary only (kind, per-sink tour lengths, planner meta) — the
        # full waypoint geometry is `repro plan`'s job, not the solve
        # response's.  Planner-less responses are unchanged.
        plan_doc = scenario.plan.to_dict()
        doc["plan"] = {
            k: plan_doc[k]
            for k in (
                "kind",
                "num_sinks",
                "path_length_m",
                "total_tour_length_m",
                "tour_lengths_m",
                "meta",
            )
        }
    if certificate is not None:
        doc["certificate"] = certificate.to_dict()
    return doc


def _solve_items(items: List[dict]) -> List[dict]:
    """Response documents of validated solve payloads, in item order.

    Items are grouped by deployment through
    :func:`~repro.sim.batch.solve_by_deployment`, so single and batch
    solves share one path and every item document is the one a single
    :func:`solve_payload` would produce (modulo wall-clock profile
    numbers).
    """
    specs = [
        TourSpec(
            ScenarioConfig.from_dict(item["scenario"]),
            item["algorithm"],
            item.get("seed"),
            bool(item.get("certify")),
        )
        for item in items
    ]
    return solve_by_deployment(specs, _solve_one)


def solve_payload(payload: dict) -> dict:
    """Solve one request payload; returns the JSON-ready result dict.

    ``payload`` is the :meth:`~repro.service.schema.SolveRequest.payload`
    shape: ``{"scenario": <config dict>, "algorithm": <canonical name>,
    "seed": <int | None>, "trace"?: bool, "certify"?: bool}`` — already
    validated, so errors here are genuine solver failures (surfaced as
    500s), not client mistakes.  With ``"certify": true`` the response
    carries a full solution certificate (constraints (1)-(4) with slack
    values, LP bound, ratio guarantee) under ``"certificate"``; the
    already-computed LP bound is reused, so certification adds one
    constraint sweep, not a second LP solve.  When the scenario config
    carries a ``planner`` block the response gains a ``"plan"`` summary
    (kind, per-sink tour lengths, planner meta).  The solve runs as a
    batch of one, so its worker metrics carry the ``batch.*`` names too.
    """
    capture_trace = bool(payload.get("trace"))
    registry = MetricsRegistry()
    tracer = Tracer() if capture_trace else None
    # memory=False keeps tracemalloc (a process-wide interpreter hook)
    # off the request path; function attribution is still captured.
    profiler = DeepProfiler(memory=False) if capture_trace else None
    with ExitStack() as stack:
        stack.enter_context(use_registry(registry))
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if profiler is not None:
            stack.enter_context(use_profiler(profiler))
        (doc,) = _solve_items([payload])

    doc[WORKER_METRICS_KEY] = registry.dump()
    if tracer is not None:
        doc[TRACE_EVENTS_KEY] = [event.as_dict() for event in tracer.events]
    if profiler is not None:
        doc[FOLDED_STACKS_KEY] = profiler.folded()
    return doc


def solve_batch_payload(payload: dict) -> dict:
    """Solve a batch payload; returns ``{"results": [...]}``.

    ``payload`` is ``{"items": [<solve payload>, ...]}`` — each item the
    exact :func:`solve_payload` shape minus ``trace`` (batches skip
    slow-request capture).  Items are grouped by ``(scenario config,
    seed)``: each distinct deployment is built **once** — topology,
    DCMP instance, derived arrays and the LP upper bound are all shared
    across that deployment's algorithms — and every per-item document
    is the one a single :func:`solve_payload` call would have produced
    (modulo wall-clock profile numbers).  Results come back in item
    order.  The whole batch runs under one recording registry whose
    dump travels back under :data:`WORKER_METRICS_KEY` (top level only;
    items carry no internal keys).
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        results = _solve_items(payload["items"])
    return {"results": results, WORKER_METRICS_KEY: registry.dump()}
