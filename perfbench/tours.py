"""The three tour workloads: ``appro-sweep``, ``maxmatch-sweep`` and
``perpetual``.

Each runs a fixed, seed-derived list of distinct topologies once, in one
process and one thread, through the library's public entry points.  The
list cycles through the workload's input classes (sizes, road shapes or
algorithms) and is long enough to fill ``--seconds``, so a run averages
over many topologies and two seeds give comparable figures.  Timing
covers the calls into the program; output checks run between the timed
operations, and the first topology is run again at the end to check that
it reproduces its outputs.

A traced run takes the first half of the list and runs every topology
twice, once untraced and once traced, in alternating order.  The traced
operation opens a span around every call the benchmark makes into a
layer (``ScenarioConfig.build``, ``Scenario.instance``, ``run_tour``,
``simulate_tours``), adds the phases ``run_tour`` reports in
``TourResult.profile`` as its children, and reads the program's counters
from a recording registry installed with ``use_registry``.  The untraced
twin gives the wall time that the layer self times must add up to.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

import inputs
import metrics
import stats
from spans import SpanRecorder, Tracer

#: Input classes one cycle of the topology list covers, and the nominal
#: time one topology takes on a 2-core x86 box: ``--seconds`` divided by
#: it gives the fixed length of the list.
CYCLE = {
    "appro-sweep": len(inputs.APPRO_SIZES),
    "maxmatch-sweep": len(inputs.MAXMATCH_SHAPES),
    "perpetual": len(inputs.PERPETUAL_ALGORITHMS),
}
OP_SECONDS = {"appro-sweep": 0.12, "maxmatch-sweep": 1.07, "perpetual": 0.65}

#: Traced self times of the program's layers, summed per tour, must match
#: the untraced per-tour wall time within this share, or the traced run
#: fails.
LAYER_SUM_TOLERANCE = 0.15

#: The layer each algorithm's ``solve_s`` phase belongs to.
SOLVE_LAYER = {
    "Offline_Appro": "core.offline_appro.solve",
    "Online_Appro": "online.online_appro.solve",
    "Offline_MaxMatch": "core.offline_maxmatch.solve",
    "Online_MaxMatch": "online.online_maxmatch.solve",
}


def topology_count(workload: str, seconds: float) -> int:
    """Length of the topology list for a ``--seconds`` budget: whole
    cycles, at least four, so a sweep has more than ten latency samples
    and a traced run two whole cycles."""
    cycle = CYCLE[workload]
    return cycle * max(4, round(seconds / (OP_SECONDS[workload] * cycle)))


def topologies(workload: str, seed: int, count: int) -> List[inputs.Topology]:
    if workload == "appro-sweep":
        return inputs.appro_sweep(seed, count)
    if workload == "maxmatch-sweep":
        return inputs.maxmatch_sweep(seed, count)
    return inputs.perpetual(seed, count // CYCLE[workload])


def setup(workload: str) -> Dict:
    """Import the program and run one warm-up per code path."""
    from repro import ScenarioConfig, get_algorithm, run_tour, simulate_tours

    algorithms = {name: get_algorithm(name) for name in SOLVE_LAYER}
    if workload == "appro-sweep":
        scenario = ScenarioConfig(num_sensors=60).build(seed=1)
        instance = scenario.instance()
        for name in inputs.APPRO_ALGORITHMS:
            run_tour(scenario, algorithms[name], mutate=False, instance=instance)
    elif workload == "maxmatch-sweep":
        # Both algorithms below the 4,000-edge engine switch, and the
        # offline matching once above it.
        for sensors, road, names in (
            (30, 1_500.0, inputs.MAXMATCH_ALGORITHMS),
            (80, 10_000.0, ("Offline_MaxMatch",)),
        ):
            scenario = ScenarioConfig(
                num_sensors=sensors, path_length=road, fixed_power=inputs.FIXED_POWER_W
            ).build(seed=1)
            instance = scenario.instance()
            for name in names:
                run_tour(scenario, algorithms[name], mutate=False, instance=instance)
    else:
        for name in inputs.PERPETUAL_ALGORITHMS:
            scenario = ScenarioConfig(
                num_sensors=60, start_time=inputs.PERPETUAL_START_S
            ).build(seed=1)
            simulate_tours(scenario, algorithms[name], 2, rest_time=inputs.PERPETUAL_REST_S)
    return algorithms


class Op:
    """Outputs and timings of one topology: its build, instance and tours."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.tours = 0
        self.latencies: List[float] = []
        self.bits: List[float] = []
        self.failures: List[str] = []
        self.pairs = 0


def _check_tour(label: str, result, instance, out: Op) -> float:
    """Output checks on one finished tour; its bits, or NaN if it failed."""
    try:
        result.allocation.check_feasible(instance)
    except ValueError as exc:
        out.failures.append(f"{label}: infeasible allocation: {exc}")
        return math.nan
    recomputed = result.allocation.collected_bits(instance)
    if recomputed != result.collected_bits:
        out.failures.append(
            f"{label}: reported {result.collected_bits!r} bits, allocation holds {recomputed!r}"
        )
        return math.nan
    return float(result.collected_bits)


def profile_phases(profile: Dict[str, float], algorithm: str, mutated: bool):
    """``TourResult.profile`` as ``(layer, seconds)`` children of
    ``sim.run_tour``, in the order ``run_tour`` runs them."""
    phases = [
        ("core.instance.build", profile["instance_build_s"]),
        (SOLVE_LAYER[algorithm], profile["solve_s"]),
        ("core.allocation.verify", profile["verify_s"]),
    ]
    if "certify_s" in profile:
        phases.append(("verify.certificate.certify", profile["certify_s"]))
    # Without mutate the energy phase only allocates empty ledgers: that
    # is run_tour's own overhead, not a battery update.  Every such tour
    # is checked to leave all battery charges as they were.
    phases.append(("energy.update" if mutated else "sim.run_tour", profile["energy_update_s"]))
    return phases


def charges(scenario) -> List[float]:
    """Every sensor's battery charge, in sensor order."""
    return [sensor.battery.charge for sensor in scenario.network.sensors]


def _sweep_topology(topo, algorithms, out: Op, tracer: Tracer) -> None:
    """Build one topology, solve it with each algorithm on a shared
    instance, then check the outputs outside the timed segment."""
    from repro import ScenarioConfig, run_tour

    results = []
    instance = None
    # Battery charges after the build and after each tour.
    snapshots = []
    started = time.perf_counter()
    root = tracer.open("bench.op", str(topo.seed))
    try:
        span = tracer.open("sim.scenario.build")
        scenario = ScenarioConfig(**topo.config).build(seed=topo.seed)
        tracer.close(span)
        snapshots.append(charges(scenario))
        span = tracer.open("core.instance.build")
        instance = scenario.instance()
        tracer.close(span)
        for name in topo.algorithms:
            span = tracer.open("sim.run_tour")
            result = run_tour(scenario, algorithms[name], mutate=False, instance=instance)
            tracer.close(span)
            snapshots.append(charges(scenario))
            tracer.phases(span, profile_phases(result.profile, name, mutated=False))
            results.append((name, result))
    except Exception as exc:  # a raising operation is a failed tour, not a crash
        out.failures.append(f"seed {topo.seed}: {type(exc).__name__}: {exc}")
    finally:
        tracer.unwind(root)
        out.wall = time.perf_counter() - started
    # A sweep's latency sample is the topology, one data point of the
    # figure.  Its tours fall in six size-by-algorithm clusters, and the
    # median of six equal clusters sits on the edge between two of them.
    out.latencies.append(out.wall)
    out.tours = len(topo.algorithms)
    collected = {}
    for (name, result), before, after in zip(results, snapshots, snapshots[1:]):
        collected[name] = _check_tour(f"seed {topo.seed} {name}", result, instance, out)
        out.bits.append(collected[name])
        if after != before:
            out.failures.append(f"seed {topo.seed} {name}: a mutate=False tour changed a battery")
    out.bits.extend(math.nan for _ in topo.algorithms[len(results):])
    if instance is not None:
        out.pairs += sum(s.num_slots for s in instance.sensors)
    offline, online = collected.get("Offline_MaxMatch"), collected.get("Online_MaxMatch")
    if offline is not None and online is not None and online > offline * (1 + 1e-9):
        # Offline_MaxMatch is exact in the fixed-power case.
        out.failures.append(
            f"seed {topo.seed}: Online_MaxMatch {online!r} bits beats the exact "
            f"Offline_MaxMatch {offline!r}"
        )


def _perpetual_network(topo, algorithms, out: Op, tracer: Tracer) -> None:
    """Build one network and run ``PERPETUAL_TOURS`` tours on it through
    ``simulate_tours``, which updates the batteries after each, then check
    every tour against its own budgets.

    Traced, one ``sim.run_tour`` span covers ``simulate_tours`` and every
    tour's profile phases, the instance build included, are its children.
    """
    from repro import ScenarioConfig, simulate_tours
    from repro.core.instance import DataCollectionInstance

    (name,) = topo.algorithms
    tours = []
    scenario = None
    started = time.perf_counter()
    root = tracer.open("bench.op", str(topo.seed))
    try:
        span = tracer.open("sim.scenario.build")
        scenario = ScenarioConfig(**topo.config).build(seed=topo.seed)
        tracer.close(span)
        span = tracer.open("sim.run_tour")
        tours = simulate_tours(
            scenario, algorithms[name], inputs.PERPETUAL_TOURS, rest_time=inputs.PERPETUAL_REST_S
        ).tours
        tracer.close(span)
        tracer.phases(
            span, [phase for t in tours for phase in profile_phases(t.profile, name, mutated=True)]
        )
    except Exception as exc:  # a raising operation is a failed tour, not a crash
        out.failures.append(f"seed {topo.seed}: {type(exc).__name__}: {exc}")
    finally:
        tracer.unwind(root)
        out.wall = time.perf_counter() - started
    out.tours = inputs.PERPETUAL_TOURS
    # Perpetual operation's unit of latency is the tour.
    out.latencies.extend(t.profile["total_s"] for t in tours)
    for j, tour in enumerate(tours):
        instance = DataCollectionInstance.from_network(
            scenario.network, scenario.trajectory, scenario.rate_table, tour.budgets
        )
        out.bits.append(_check_tour(f"seed {topo.seed} {name} tour {j}", tour, instance, out))
        out.pairs += sum(s.num_slots for s in instance.sensors)
    out.bits.extend(math.nan for _ in range(inputs.PERPETUAL_TOURS - len(tours)))
    for sensor in scenario.network.sensors if tours else ():
        charge, capacity = sensor.battery.charge, sensor.battery.capacity
        if not -1e-9 <= charge <= capacity + 1e-9:
            out.failures.append(
                f"seed {topo.seed}: battery charge {charge!r} outside [0, {capacity}]"
            )
            break


def run_op(workload: str, topo, algorithms, recorder: Optional[SpanRecorder] = None) -> Op:
    out = Op()
    step = _perpetual_network if workload == "perpetual" else _sweep_topology
    step(topo, algorithms, out, Tracer(recorder))
    return out


class TourRun:
    """What one run of a tour workload measured."""

    def __init__(self) -> None:
        self.ops: List[Op] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.spans: Optional[SpanRecorder] = None

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.failures))

    def absorb(self, op: Op) -> Op:
        self.attempted += op.tours
        self.failures.extend(op.failures)
        return op

    def check_repeat(self, label: str, first: Op, again: Op) -> None:
        """The same topology must collect the same bits every time."""
        if first.bits != again.bits and not any(map(math.isnan, first.bits + again.bits)):
            self.failures.append(f"{label}: a repeated run collected other bits")

    def record_yield(self, ops: List[Op]) -> None:
        bits = [b for op in ops for b in op.bits]
        self.info["digest"] = stats.digest(bits)
        valid = [b for b in bits if not math.isnan(b)]
        self.metrics["collected_mb_per_tour"] = sum(valid) / len(valid) / 1e6 if valid else 0.0


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    algorithms: Dict,
    calibration: stats.Calibration,
) -> TourRun:
    topos = topologies(workload, seed, topology_count(workload, seconds))
    result = TourRun()
    result.info["topologies"] = len(topos)
    if trace:
        return _run_traced(result, workload, topos, algorithms)
    ops = []
    for topo in topos:
        calibration.sample()
        ops.append(result.absorb(run_op(workload, topo, algorithms)))
    again = result.absorb(run_op(workload, topos[0], algorithms))
    result.check_repeat(f"seed {topos[0].seed}", ops[0], again)
    result.record_yield(ops)
    latencies = [x for op in ops for x in op.latencies]
    tail_value, tail_pct, samples = stats.tail(latencies)
    result.metrics.update(
        tours_per_s=sum(op.tours for op in ops) / sum(op.wall for op in ops),
        solve_p50_ms=stats.median(latencies) * 1e3,
    )
    result.info.update(
        solve_tail_ms=tail_value * 1e3, tail_percentile=round(tail_pct, 2), latency_samples=samples
    )
    return result


def _run_traced(result: TourRun, workload, topos, algorithms) -> TourRun:
    from repro.obs import MetricsRegistry, use_registry

    recorder = SpanRecorder()
    registry = MetricsRegistry()
    plain: List[Op] = []
    traced: List[Op] = []
    for index, topo in enumerate(topos[: len(topos) // 2]):
        # Each topology runs untraced and traced; alternate which goes
        # first so warm-up effects fall on both sides alike.
        for tracing in (False, True) if index % 2 == 0 else (True, False):
            if tracing:
                with use_registry(registry):
                    traced.append(result.absorb(run_op(workload, topo, algorithms, recorder)))
            else:
                plain.append(result.absorb(run_op(workload, topo, algorithms)))
        result.check_repeat(f"seed {topo.seed}", plain[-1], traced[-1])
    result.record_yield(plain)
    result.spans = recorder

    tours = sum(op.tours for op in traced)
    plain_wall = sum(op.wall for op in plain) / sum(op.tours for op in plain)
    traced_wall = sum(op.wall for op in traced) / tours
    self_seconds = recorder.self_times()
    layer = metrics.layer_metrics(self_seconds, registry.snapshot()["counters"], tours)
    layer_sum = metrics.layer_sum(self_seconds) / tours
    share = layer_sum / plain_wall
    layer.update(
        {
            # Set by the workload's shape: one build per topology.
            "sim.scenario.builds": sum(1 for s in recorder.spans if s[0] == "sim.scenario.build")
            / tours,
            "core.instance.pairs": sum(op.pairs for op in traced) / tours,
            "trace.overhead_share": traced_wall / plain_wall - 1.0,
            "trace.layer_sum_share": share,
        }
    )
    if abs(share - 1.0) > LAYER_SUM_TOLERANCE:
        result.failures.append(
            f"layer self times sum to {share:.3f} x the untraced per-tour wall time, "
            f"outside 1 +- {LAYER_SUM_TOLERANCE}"
        )
    result.metrics = layer
    result.info.update(
        untraced_ms_per_tour=plain_wall * 1e3,
        traced_ms_per_tour=traced_wall * 1e3,
        layer_sum_ms_per_tour=layer_sum * 1e3,
        layer_sum_tolerance=LAYER_SUM_TOLERANCE,
        unaccounted_share=self_seconds.get(metrics.BENCH_SPAN, 0.0) / tours / plain_wall,
    )
    return result
