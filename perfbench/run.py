"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload appro-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that measures the per-layer metrics.  Every metric is
printed by name with its unit, a run report lands in ``.perfbench_out/``
and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed
(the result line is still printed) and 2 when the run could not be made
at all, for example because the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("appro-sweep", "maxmatch-sweep", "perpetual", "service")
#: Setup runs per measurement run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class Unmeasurable(Exception):
    """The run could not be made; no result is printed."""


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise Unmeasurable(f"no program source under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise Unmeasurable(f"imported repro from {repro.__file__}, not from {src}")


def _measure_tour_setup(args) -> tuple:
    """Time fresh processes from spawn to the end of their warm-up."""
    import stats

    samples = []
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        probe = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - started
        probe.stdout.close()
        if probe.wait(timeout=120) != 0 or line.strip() != b"ready":
            raise Unmeasurable(f"setup probe failed: {line!r}")
        samples.append(elapsed)
    return stats.median(samples), samples


#: End-to-end timings a tour workload reports in units of the reference
#: machine's speed (``ref-ms``, ``ref-tours/s``).  ``setup_s`` is timed
#: in other processes before any calibration round runs, and the
#: service's solves run in other processes whose speed a calibration
#: round in this one does not reliably track, so those stay raw.
DURATIONS = ("solve_p50_ms",)
RATES = ("tours_per_s",)


def _normalise(result, calibration) -> None:
    """Scale timings by the speed the calibration rounds measured, and
    keep the raw figures in the run report."""
    speed = calibration.speed
    result.info["calibration"] = {
        "speed": speed,
        "rounds": len(calibration.samples),
        "raw": {name: result.metrics[name] for name in DURATIONS + RATES},
    }
    for name in DURATIONS:
        result.metrics[name] *= speed
    for name in RATES:
        result.metrics[name] /= speed


def main(argv=None) -> int:
    try:
        return _main(argv)
    except (Unmeasurable, RuntimeError, OSError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()

    import metrics
    import stats
    import tours

    if args.setup_probe:
        tours.setup(args.workload)
        print("ready", flush=True)
        return 0

    definition = metrics.load(ROOT)
    units = metrics.units(definition, bool(args.trace))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace = bool(args.trace)

    calibration = None
    if args.workload == "service":
        import service

        result = service.run(ROOT, out_dir, args.seed, args.seconds, trace)
    else:
        calibration = stats.Calibration()
        setup = None if trace else _measure_tour_setup(args)
        algorithms = tours.setup(args.workload)
        result = tours.run(args.workload, args.seed, args.seconds, trace, algorithms, calibration)
        if setup is not None:
            result.metrics["setup_s"], result.info["setup_samples_s"] = setup
            result.metrics["peak_rss_mb"] = stats.self_peak_rss_mb()
    if not trace:
        result.metrics["success_share"] = (result.attempted - result.failed) / result.attempted
        if calibration is not None:
            _normalise(result, calibration)

    missing = metrics.missing(result.metrics, list(units))
    if missing:
        raise Unmeasurable(f"the run did not measure {', '.join(missing)}")
    invalid = getattr(result, "invalid", None)
    if invalid:
        raise Unmeasurable(f"invalid run: {invalid}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {name: result.metrics[name] for name in units},
        "info": result.info,
        "failures": result.failures[:50],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if result.spans is not None:
        (out_dir / f"{stem}.trace.json").write_text(result.spans.chrome_trace())

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key in ("digest", "topologies", "solve_tail_ms", "tail_percentile", "latency_samples",
                "layer_sum_tolerance", "unaccounted_share"):
        if key in result.info:
            print(f"  {key}: {result.info[key]}")
    for failure in result.failures[:10]:
        print(f"  FAILED {failure}")
    for name, unit in units.items():
        print(f"  {name} = {result.metrics[name]:.6g} {unit}")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
