"""Command-line interface.

Subcommands:

* ``fig2`` / ``fig3`` / ``fig4`` / ``ablation-gamma`` /
  ``ablation-energy`` — regenerate a paper figure or ablation, then
  check its claims (one PASS/FAIL row each); exits 1 when a claim
  fails.  The figures default to the paper's scale (50 topologies,
  n = 100..600); ``--repeats 3 --sizes 100 300 600`` is the quick
  scale the tests run::

      python -m repro fig3 --repeats 50
      python -m repro fig2 --repeats 3 --sizes 100 300 600 --jobs 4

* ``compare`` — run every applicable algorithm on one topology and
  report throughput, LP-bound fraction, per-phase timings (from the
  metrics registry) and message counts::

      python -m repro compare --sensors 300 --seed 7 --fixed-power 0.3

* ``profile`` — run one algorithm under a recording metrics registry
  and emit a JSON profile report (phase timings, solver counters, timer
  histograms), optionally with a Chrome trace; ``--deep`` adds
  cProfile + tracemalloc attribution (hot-function tables, per-phase
  peak memory) to the report and writes a flamegraph-folded stack
  file::

      python -m repro profile --sensors 100 --algo Offline_Appro
      python -m repro profile --sensors 300 --algo Online_Appro --trace out.json
      python -m repro profile --sensors 100 --deep --folded profile.folded

* ``plan`` — design a sink tour over a 2D field before solving: ASCII
  field map plus a deterministic JSON plan document (see
  ``docs/PLANNING.md``; every scenario command also accepts
  ``--planner`` to solve on a designed tour)::

      python -m repro plan --sensors 60 --field-width 1200 --field-height 300
      python -m repro plan --planner multi_sink --sinks 3 --budget 2000 --json plan.json

* ``serve`` — run the HTTP planning service (see ``docs/SERVICE.md``);
  JSON access logs go to stderr (or ``--access-log PATH``) and slow
  requests can persist solver traces::

      python -m repro serve --port 8080 --workers 4 --cache-size 256
      python -m repro serve --trace-threshold 1.0 --trace-dir traces

* ``bench`` — run the fixed core benchmark grid and (optionally) write
  the machine-readable document; ``--compare`` is the ledger gate over
  two documents and exits 1 on a regression (counters gate exactly,
  wall clocks by relative threshold over a noise floor, and only
  between documents from the same platform and Python)::

      python -m repro bench --quick --repeat 3 --json BENCH_core.json
      python -m repro bench --compare BENCH_core.json BENCH_new.json

  ``--record`` also appends the run to the perf ledger
  (``benchmarks/history/`` by default)::

      python -m repro bench --quick --record
      python -m repro bench --quick --record bench-history

* ``trend`` — align the recorded ledger by ``(algorithm, n, L)`` cell,
  render ASCII sparkline trajectories of wall phases, work counters,
  and collected megabits per commit label, and grade the last three
  points under the same policy as ``bench --compare``; ``--json``
  emits the trend document with its verdict and ``--gate`` exits 1 on
  a regression::

      python -m repro trend
      python -m repro trend --dir bench-history --json - --gate

* ``verify`` — certify one algorithm's solution on one topology
  (constraints (1)-(4) with slack values, LP bound, ratio guarantee),
  or replay a fuzz-corpus file; exits 1 on a failed certificate::

      python -m repro verify --sensors 100 --algo Offline_Appro
      python -m repro verify --corpus-file tests/data/corpus/foo.json

* ``fuzz`` — differential fuzzing of all registered algorithms on
  random instances, with greedy shrinking and corpus persistence;
  exits 1 when a failure is found::

      python -m repro fuzz --runs 50 --seed 0
      python -m repro fuzz --runs 200 --corpus-dir tests/data/corpus

The global ``-v/--verbose`` flag (repeatable) raises the ``repro``
logger hierarchy from WARNING to INFO (``-v``) or DEBUG (``-vv``).
"""

from __future__ import annotations

import argparse
import contextlib as _contextlib
import sys
import time
from typing import List, Optional, Sequence

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.report import format_claims
from repro.obs.trend import DEFAULT_HISTORY_DIR

__all__ = ["main", "build_parser"]


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sensors", type=int, default=300, help="network size n")
    parser.add_argument("--seed", type=int, default=0, help="topology seed")
    parser.add_argument("--speed", type=float, default=5.0, help="sink speed (m/s)")
    parser.add_argument("--tau", type=float, default=1.0, help="slot duration (s)")
    parser.add_argument(
        "--fixed-power",
        type=float,
        default=None,
        help="use the fixed-power special case with this power in watts",
    )
    parser.add_argument(
        "--field-width",
        type=float,
        default=None,
        metavar="METRES",
        help="field width / path length L (default: the paper's 10,000 m)",
    )
    parser.add_argument(
        "--field-height",
        type=float,
        default=None,
        metavar="METRES",
        help="maximum lateral sensor offset from the path axis "
        "(default: the paper's 180 m; the field is 2x this tall)",
    )
    parser.add_argument(
        "--planner",
        type=str,
        choices=("fixed_line", "plane_sweep", "multi_sink"),
        default=None,
        help="design the sink tour before solving (default: the paper's "
        "fixed straight line; see docs/PLANNING.md)",
    )
    parser.add_argument(
        "--deployment",
        type=str,
        choices=("uniform", "clustered"),
        default="uniform",
        help="2D deployment the planner plans over (with --planner)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="METRES",
        help="per-sink tour length bound for the planner",
    )
    parser.add_argument(
        "--sinks",
        type=int,
        default=2,
        metavar="K",
        help="initial sink count for --planner multi_sink (default: 2)",
    )
    parser.add_argument(
        "--spacing",
        type=float,
        default=None,
        metavar="METRES",
        help="target sweep-line spacing (default: transmission range R)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Use of a Mobile Sink for "
            "Maximizing Data Collection in Energy Harvesting Sensor "
            "Networks' (ICPP 2013)."
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise repro.* log level (-v: INFO, -vv: DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, module in EXPERIMENTS.items():
        p = sub.add_parser(name, help=module.__doc__.splitlines()[0])
        p.add_argument(
            "--repeats",
            type=int,
            default=50,
            help="random topologies per point (paper: 50)",
        )
        p.add_argument(
            "--sizes",
            type=int,
            nargs="+",
            default=None,
            help="network sizes n to sweep (default: the paper's 100..600)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes (default: all cores; 1 = in-process)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the root seed")
        p.add_argument(
            "--output",
            type=str,
            default=None,
            help="also write the raw sweep records to this JSON file",
        )

    compare = sub.add_parser(
        "compare", help="run every applicable algorithm on one topology"
    )
    _add_scenario_args(compare)
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison as machine-readable JSON instead of a table",
    )

    profile = sub.add_parser(
        "profile",
        help="profile one algorithm: JSON report of phase timings and counters",
    )
    _add_scenario_args(profile)
    profile.add_argument(
        "--algo",
        type=str,
        default="Offline_Appro",
        help="registered algorithm name (default: Offline_Appro); "
        "also accepts lowercase aliases like offline_appro",
    )
    profile.add_argument(
        "--trace",
        type=str,
        default=None,
        help="also write a Chrome trace_event JSON (chrome://tracing) here",
    )
    profile.add_argument(
        "--output",
        type=str,
        default=None,
        help="write the JSON report to this file instead of stdout",
    )
    profile.add_argument(
        "--deep",
        action="store_true",
        help="wrap every phase in cProfile + tracemalloc: the report "
        "gains hot-function tables and per-phase peak memory, and a "
        "flamegraph-folded stack file is written (see --folded)",
    )
    profile.add_argument(
        "--folded",
        type=str,
        default=None,
        metavar="PATH",
        help="with --deep, write the collapsed-stack text here "
        "(default: <output>.folded next to --output, else profile.folded)",
    )

    plan = sub.add_parser(
        "plan",
        help="design a sink tour over a 2D field (ASCII map + JSON document)",
    )
    _add_scenario_args(plan)
    plan.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the deterministic plan document here ('-' for stdout, "
        "suppressing the map)",
    )
    plan.add_argument(
        "--cols",
        type=int,
        default=72,
        help="ASCII map width in characters (default: 72)",
    )

    serve = sub.add_parser(
        "serve", help="run the HTTP planning service (POST /v1/solve, ...)"
    )
    serve.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="solver worker processes (default: one per core)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=128,
        help="result-cache capacity in entries (0 disables caching)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="deadline in seconds for synchronous solves (504 beyond it)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="bound on unfinished jobs (429 beyond it)",
    )
    serve.add_argument(
        "--max-batch-items",
        type=int,
        default=32,
        help="largest /v1/solve-batch request accepted (400 beyond it)",
    )
    serve.add_argument(
        "--trace-threshold",
        type=float,
        default=None,
        metavar="SECONDS",
        help="persist solver span traces of synchronous solves slower than "
        "this many seconds (0 traces every request; default: disabled)",
    )
    serve.add_argument(
        "--trace-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="directory slow-request Chrome traces are written to "
        "(default: ./traces when --trace-threshold is set)",
    )
    serve.add_argument(
        "--access-log",
        type=str,
        default=None,
        metavar="PATH",
        help="append JSON access-log lines to this file (default: stderr)",
    )

    verify = sub.add_parser(
        "verify",
        help="certify one solution (constraints, LP bound, ratio guarantee)",
    )
    _add_scenario_args(verify)
    verify.add_argument(
        "--algo",
        type=str,
        default="Offline_Appro",
        help="registered algorithm name to run and certify "
        "(default: Offline_Appro; lowercase aliases accepted)",
    )
    verify.add_argument(
        "--corpus-file",
        type=str,
        default=None,
        metavar="PATH",
        help="instead of building a scenario, replay this fuzz-corpus "
        "JSON file through the full differential check",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="emit the certificate (or replay findings) as JSON",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing with shrinking and corpus persistence",
    )
    fuzz.add_argument("--runs", type=int, default=50, help="random instances to check")
    fuzz.add_argument("--seed", type=int, default=0, help="root seed (runs derive from it)")
    fuzz.add_argument(
        "--max-slots", type=int, default=12, help="max horizon T of drawn instances"
    )
    fuzz.add_argument(
        "--max-sensors", type=int, default=5, help="max sensor count n of drawn instances"
    )
    fuzz.add_argument(
        "--corpus-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="persist shrunk failures as canonical JSON under this directory "
        "(commit them to tests/data/corpus to turn them into regression tests)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="keep failures at their original size (skip greedy shrinking)",
    )
    fuzz.add_argument(
        "--max-failures",
        type=int,
        default=10,
        help="stop the campaign after this many failures",
    )

    bench = sub.add_parser(
        "bench",
        help="run the fixed core benchmark grid (wall clock + registry stats), "
        "or diff two bench documents with --compare",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small/fast grid (n=30,60 on a 1.5 km path) instead of n=100,300",
    )
    bench.add_argument("--seed", type=int, default=7, help="topology seed")
    bench.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run every cell N times; wall_s becomes the per-cell minimum and "
        "a min/median/max wall_stats block is recorded (default: 1)",
    )
    bench.add_argument(
        "--label",
        type=str,
        default=None,
        help="free-form provenance label stamped into the document",
    )
    bench.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the full JSON document (bench run or, with "
        "--compare, the trend document with its gate verdict) here",
    )
    bench.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help="gate NEW against OLD instead of running the grid (the trend "
        "gate over two points); exits 1 on a regression",
    )
    bench.add_argument(
        "--record",
        nargs="?",
        const=DEFAULT_HISTORY_DIR,
        default=None,
        metavar="DIR",
        help="append the bench document to the perf ledger under DIR "
        f"(default: {DEFAULT_HISTORY_DIR}); read it back with 'repro trend'",
    )

    trend = sub.add_parser(
        "trend",
        help="render perf trajectories from the 'bench --record' ledger "
        "(sparklines per (algorithm, n, L) cell) and grade the last three "
        "points",
    )
    trend.add_argument(
        "--dir",
        type=str,
        default=DEFAULT_HISTORY_DIR,
        metavar="DIR",
        help="ledger directory written by 'bench --record' "
        f"(default: {DEFAULT_HISTORY_DIR})",
    )
    trend.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="write the trend document with its gate verdict here "
        "('-' for stdout, suppressing the rendered report)",
    )
    trend.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 when the verdict over the last three points is "
        "REGRESSION",
    )

    return parser


def _build_scenario(args: argparse.Namespace, default_planner: Optional[str] = None):
    from repro.sim.scenario import ScenarioConfig

    kwargs = dict(
        num_sensors=args.sensors,
        sink_speed=args.speed,
        slot_duration=args.tau,
        fixed_power=args.fixed_power,
    )
    if getattr(args, "field_width", None) is not None:
        kwargs["path_length"] = args.field_width
    if getattr(args, "field_height", None) is not None:
        kwargs["max_offset"] = args.field_height
    planner_kind = getattr(args, "planner", None) or default_planner
    if planner_kind is not None:
        from repro.planning import PlannerConfig

        kwargs["planner"] = PlannerConfig(
            kind=planner_kind,
            deployment=getattr(args, "deployment", "uniform"),
            tour_length_budget=getattr(args, "budget", None),
            sweep_spacing=getattr(args, "spacing", None),
            num_sinks=getattr(args, "sinks", 2),
            max_sinks=max(16, getattr(args, "sinks", 2)),
        )
    config = ScenarioConfig(**kwargs)
    return config.build(seed=args.seed)


def _run_figure(args: argparse.Namespace) -> int:
    module = get_experiment(args.command)
    kwargs = {"repeats": args.repeats, "jobs": args.jobs}
    if args.sizes is not None:
        kwargs["sizes"] = tuple(args.sizes)
    if args.seed is not None:
        kwargs["root_seed"] = args.seed
    t0 = time.perf_counter()
    result = module.run(**kwargs)
    elapsed = time.perf_counter() - t0
    claims = module.check(result)
    print(module.report(result))
    print(format_claims(claims))
    print(f"({len(result.records)} records in {elapsed:.1f} s)")
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(result.to_json(indent=2))
        print(f"[raw records written to {args.output}]")
    return 0 if all(c.held for c in claims) else 1


def _resolve_algorithm_name(name: str) -> str:
    """Match ``name`` against the registry, tolerating lowercase aliases
    (``offline_appro`` → ``Offline_Appro``)."""
    from repro.sim.algorithms import resolve_algorithm_name

    try:
        return resolve_algorithm_name(name)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def _run_compare(args: argparse.Namespace) -> int:
    import json

    from repro.core.lp import dcmp_lp_upper_bound
    from repro.sim.algorithms import ALGORITHMS, get_algorithm, requires_fixed_power
    from repro.sim.simulator import run_tour

    scenario = _build_scenario(args)
    instance = scenario.instance()
    bound = dcmp_lp_upper_bound(instance)

    rows: List[dict] = []
    skipped: List[dict] = []
    for name in ALGORITHMS:
        if requires_fixed_power(name) and args.fixed_power is None:
            skipped.append(
                {
                    "algorithm": name,
                    "reason": "fixed-power special case; pass --fixed-power "
                    "(the paper uses 0.3)",
                }
            )
            continue
        result = run_tour(scenario, get_algorithm(name), mutate=False)
        rows.append(
            {
                "algorithm": name,
                "megabits": result.collected_megabits,
                "lp_fraction": result.collected_bits / bound if bound else 0.0,
                "build_ms": result.profile["instance_build_s"] * 1e3,
                "solve_ms": result.profile["solve_s"] * 1e3,
                "verify_ms": result.profile["verify_s"] * 1e3,
                "messages": (
                    result.messages.total_messages if result.messages else 0
                ),
            }
        )

    if args.json:
        document = {
            "format": "repro.compare",
            "version": 1,
            "topology": {
                "num_sensors": args.sensors,
                "seed": args.seed,
                "sink_speed": args.speed,
                "slot_duration": args.tau,
                "fixed_power": args.fixed_power,
                "num_slots": instance.num_slots,
                "gamma": scenario.gamma,
            },
            "lp_bound_megabits": bound / 1e6,
            "rows": rows,
            "skipped": skipped,
        }
        print(json.dumps(document, indent=2))
        return 0

    print(
        f"topology: n={args.sensors}, T={instance.num_slots}, gamma={scenario.gamma}, "
        f"seed={args.seed}; LP bound {bound / 1e6:.2f} Mb\n"
    )
    print(
        f"{'algorithm':<26} {'Mb':>9} {'of LP':>7} {'build ms':>9} "
        f"{'solve ms':>9} {'verify ms':>10} {'messages':>9}"
    )
    for row in rows:
        print(
            f"{row['algorithm']:<26} {row['megabits']:>9.2f} {row['lp_fraction']:>6.1%} "
            f"{row['build_ms']:>9.1f} {row['solve_ms']:>9.1f} "
            f"{row['verify_ms']:>10.1f} {row['messages']:>9}"
        )
    if skipped:
        names = ", ".join(entry["algorithm"] for entry in skipped)
        print(
            f"\nnote: skipped {names} — fixed-power special case; "
            "pass --fixed-power (the paper uses 0.3)"
        )
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    from repro.core.lp import load_highs
    from repro.obs import (
        DeepProfiler,
        MetricsRegistry,
        Tracer,
        profile_report,
        render_profile_report,
        use_profiler,
        use_registry,
        use_tracer,
    )
    from repro.sim.algorithms import get_algorithm
    from repro.sim.simulator import run_tour

    if args.folded and not args.deep:
        raise SystemExit("--folded requires --deep")
    algo_name = _resolve_algorithm_name(args.algo)
    if "MaxMatch" in algo_name and args.fixed_power is None:
        raise SystemExit(
            f"{algo_name} is the fixed-power special case; pass --fixed-power "
            "(the paper uses 0.3)"
        )
    registry = MetricsRegistry()
    tracer = Tracer()
    profiler = DeepProfiler() if args.deep else None
    deep = None
    folded_text = None
    load_highs()  # before the recorders, so the report holds no import
    with _contextlib.ExitStack() as stack:
        stack.enter_context(use_registry(registry))
        stack.enter_context(use_tracer(tracer))
        if profiler is not None:
            stack.enter_context(use_profiler(profiler))
        scenario = _build_scenario(args)
        result = run_tour(scenario, get_algorithm(algo_name), mutate=False)
        if profiler is not None:
            deep = profiler.attribution()
            folded_text = profiler.folded()
    report = profile_report(
        result,
        registry,
        algorithm=algo_name,
        scenario={
            "num_sensors": args.sensors,
            "seed": args.seed,
            "sink_speed": args.speed,
            "slot_duration": args.tau,
            "fixed_power": args.fixed_power,
            "gamma": scenario.gamma,
            "num_slots": scenario.trajectory.num_slots,
        },
        deep=deep,
    )
    text = render_profile_report(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"[profile report written to {args.output}]")
    else:
        print(text)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(tracer.to_chrome_trace())
        print(f"[chrome trace written to {args.trace}]", file=sys.stderr)
    if folded_text is not None:
        from pathlib import Path

        folded_path = args.folded or (
            str(Path(args.output).with_suffix(".folded"))
            if args.output
            else "profile.folded"
        )
        with open(folded_path, "w", encoding="utf-8") as fh:
            fh.write(folded_text)
        print(f"[folded stacks written to {folded_path}]", file=sys.stderr)
    return 0


def _run_plan(args: argparse.Namespace) -> int:
    import json

    from repro.planning import PlanningError, plan_document, render_field_map

    try:
        scenario = _build_scenario(args, default_planner="plane_sweep")
    except PlanningError as exc:
        print(f"plan: {exc}", file=sys.stderr)
        return 2
    plan = scenario.plan
    positions = scenario.network.positions
    document = plan_document(
        plan, positions, scenario.config.to_dict(), scenario.seed
    )
    # sort_keys + fixed indent: byte-identical output across runs at the
    # same seed (the CI plan-smoke job diffs two invocations).
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.json == "-":
        sys.stdout.write(text)
        return 0
    print(
        render_field_map(
            plan,
            positions,
            scenario.config.path_length,
            scenario.config.max_offset,
            cols=args.cols,
        )
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"[plan document written to {args.json}]")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.obs import configure_access_log, enable_metrics
    from repro.service import PlanningService, create_server, run_server

    registry = enable_metrics()
    configure_access_log(path=args.access_log)
    service = PlanningService(
        workers=args.workers,
        cache_size=args.cache_size,
        request_timeout=args.request_timeout,
        max_queue=args.max_queue,
        max_batch_items=args.max_batch_items,
        registry=registry,
        trace_threshold=args.trace_threshold,
        trace_dir=args.trace_dir,
    )
    server = create_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro planning service listening on http://{host}:{port}", flush=True)
    run_server(server)
    print("planning service shut down cleanly (in-flight jobs drained)", flush=True)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    import json

    if args.corpus_file:
        from repro.verify.corpus import load_corpus_file, replay_file

        doc = load_corpus_file(args.corpus_file)
        findings = replay_file(args.corpus_file)
        if args.json:
            print(
                json.dumps(
                    {
                        "corpus_file": args.corpus_file,
                        "kind": doc["kind"],
                        "algorithm": doc["algorithm"],
                        "check": doc["check"],
                        "findings": [
                            {
                                "kind": f.kind,
                                "algorithm": f.algorithm,
                                "check": f.check,
                                "detail": f.detail,
                            }
                            for f in findings
                        ],
                    },
                    indent=2,
                )
            )
        else:
            print(
                f"corpus file {args.corpus_file}: recorded "
                f"{doc['kind']}/{doc['algorithm']}/{doc['check']}"
            )
            if findings:
                for f in findings:
                    print(f"  STILL FAILING [{f.kind}] {f.algorithm}/{f.check}: {f.detail}")
            else:
                print("  replay clean: the historical failure stays fixed")
        return 1 if findings else 0

    from repro.verify.certificate import render_certificate
    from repro.sim.algorithms import get_algorithm
    from repro.sim.simulator import run_tour

    algo_name = _resolve_algorithm_name(args.algo)
    if "MaxMatch" in algo_name and args.fixed_power is None:
        raise SystemExit(
            f"{algo_name} is the fixed-power special case; pass --fixed-power "
            "(the paper uses 0.3)"
        )
    scenario = _build_scenario(args)
    result = run_tour(scenario, get_algorithm(algo_name), mutate=False, certify=True)
    certificate = result.certificate
    if args.json:
        print(certificate.to_json(indent=2))
    else:
        print(render_certificate(certificate))
    return 0 if certificate.passed else 1


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import run_fuzz

    report = run_fuzz(
        runs=args.runs,
        seed=args.seed,
        max_slots=args.max_slots,
        max_sensors=args.max_sensors,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus_dir,
        max_failures=args.max_failures,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _report_ledger(trend: dict, json_path: Optional[str]) -> bool:
    """Print a gated trend document's report (or, for ``json_path`` "-",
    the document itself), write it to ``json_path``; returns the verdict."""
    import json

    from repro.obs import render_trend

    text = json.dumps(trend, indent=2) + "\n"
    if json_path == "-":
        sys.stdout.write(text)
    else:
        print(render_trend(trend))
        if json_path:
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"[trend document written to {json_path}]")
    return trend["gate"]["ok"]


def _run_bench(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.bench import render_bench, run_bench

    if args.compare is not None:
        from repro.obs import compare_bench

        documents = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                documents.append(json.load(fh))
        trend = compare_bench(*documents, files=args.compare)
        return 0 if _report_ledger(trend, args.json) else 1
    document = run_bench(
        quick=args.quick, seed=args.seed, repeat=args.repeat, label=args.label
    )
    print(render_bench(document))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        print(f"[bench document written to {args.json}]")
    if args.record is not None:
        from repro.obs import record_bench

        path = record_bench(document, args.record)
        print(f"[bench document recorded to {path}]")
    return 0


def _run_trend(args: argparse.Namespace) -> int:
    from repro.obs import build_trend, gate_trend, load_history

    history = load_history(args.dir)
    if not history:
        print(
            f"trend: no bench documents under {args.dir} "
            "(record some with 'repro bench --record')",
            file=sys.stderr,
        )
        return 2
    trend = build_trend(
        [doc for _, doc in history], files=[name for name, _ in history]
    )
    trend["gate"] = gate_trend(trend)
    ok = _report_ledger(trend, args.json)
    return 1 if args.gate and not ok else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.verbose:
        from repro.obs import configure_logging

        configure_logging(args.verbose)
    if args.command in EXPERIMENTS:
        return _run_figure(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "plan":
        return _run_plan(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "trend":
        return _run_trend(args)
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "fuzz":
        return _run_fuzz(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
