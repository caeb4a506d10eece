"""Differential fuzzer: random instances, cross-checked algorithms.

One run of the fuzzer draws a random instance from
:func:`repro.verify.gen.random_instance`, executes every applicable
registered algorithm on it, and checks three layers of evidence:

* **certificates** — each allocation passes :func:`repro.verify.certificate.certify`
  (constraints (1)-(4), LP upper bound, brute-force optimum on small
  instances, proven approximation ratios);
* **invariants** — cross-algorithm orderings that must hold regardless
  of the instance (an online variant never beats its offline optimum);
* **metamorphic relations** — transformed instances (slot-order
  reversal, sensor relabeling, uniform profit/energy scaling) must not
  change feasibility nor, where the solver is exact, the objective and
  the LP bound.

Failures become :class:`FuzzFailure` records; :func:`run_fuzz` shrinks
each to a minimal reproducer via :mod:`repro.verify.shrink` and can
persist it to the replayable corpus (:mod:`repro.verify.corpus`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.instance import DataCollectionInstance
from repro.core.offline_maxmatch import fixed_power_of
from repro.obs import get_logger, get_registry, phase
from repro.verify.certificate import certify
from repro.verify.gen import random_instance

__all__ = [
    "FuzzFinding",
    "FuzzFailure",
    "FuzzReport",
    "check_instance",
    "run_fuzz",
    "reverse_slots",
    "relabel_sensors",
    "scale_profits",
    "scale_energy",
]

_log = get_logger("verify.fuzz")

#: Relative tolerance for objective/bound equality across transforms.
_RTOL = 1e-7

#: Algorithms whose output the metamorphic relations re-solve (the
#: deterministic solvers; baselines add noise without adding oracle
#: power, and online variants depend on the interval structure that the
#: transforms deliberately disturb).
_METAMORPHIC_ALGORITHMS = ("Offline_Appro", "Offline_MaxMatch")

#: Algorithms that are *exact*, so their objective must be invariant
#: under objective-preserving transforms.
_EXACT_ALGORITHMS = ("Offline_MaxMatch",)


@dataclass(frozen=True)
class FuzzFinding:
    """One observed property violation.

    ``kind`` is ``"crash"`` (an algorithm raised), ``"certificate"``
    (a certificate check failed), ``"invariant"`` (a cross-algorithm
    ordering broke) or ``"metamorphic"`` (a transform changed what it
    must not change); ``check`` names the specific failed property.
    """

    kind: str
    algorithm: str
    check: str
    detail: str

    def key(self) -> Tuple[str, str, str]:
        """Identity used to match a finding across shrink steps."""
        return (self.kind, self.algorithm, self.check)


@dataclass
class FuzzFailure:
    """A finding together with its (possibly shrunk) reproducer."""

    finding: FuzzFinding
    instance: DataCollectionInstance
    gamma: int
    seed: int
    run_index: int
    original_shape: Tuple[int, int]  # (num_sensors, num_slots) pre-shrink
    shrunk: bool = False

    @property
    def shape(self) -> Tuple[int, int]:
        """Current ``(num_sensors, num_slots)`` of the reproducer."""
        return (self.instance.num_sensors, self.instance.num_slots)


@dataclass
class FuzzReport:
    """Aggregate outcome of one :func:`run_fuzz` campaign."""

    runs: int
    seed: int
    checked_runs: int = 0
    algorithm_runs: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    corpus_paths: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the campaign found nothing."""
        return not self.failures

    def summary(self) -> str:
        """One-paragraph human summary."""
        lines = [
            f"fuzz: {self.checked_runs}/{self.runs} runs, "
            f"{self.algorithm_runs} algorithm executions, "
            f"{len(self.failures)} failure(s) in {self.elapsed_s:.1f} s "
            f"(seed {self.seed})"
        ]
        for failure in self.failures:
            n0, t0 = failure.original_shape
            n1, t1 = failure.shape
            lines.append(
                f"  [{failure.finding.kind}] {failure.finding.algorithm} / "
                f"{failure.finding.check} (run {failure.run_index}): "
                f"{failure.finding.detail} — shrunk (n={n0},T={t0}) -> (n={n1},T={t1})"
            )
        for path in self.corpus_paths:
            lines.append(f"  corpus: {path}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Metamorphic transforms
# ----------------------------------------------------------------------
def reverse_slots(instance: DataCollectionInstance) -> DataCollectionInstance:
    """Mirror the time axis: slot ``j`` becomes ``T-1-j``.

    Windows flip to ``[T-1-end, T-1-start]`` and per-slot arrays
    reverse, so the instance describes the same physics driven the
    other way down the path.  Feasibility structure, the LP bound and
    the exact optimum are all invariant.
    """
    t = instance.num_slots
    starts, ends = instance.window_bounds()
    flat = instance.flat_pairs()
    empty = starts > ends
    # Each sensor's span [offsets[i], offsets[i+1]) read backwards.
    source = (flat.offsets[:-1] + flat.offsets[1:] - 1)[flat.sensor] - np.arange(flat.sensor.size)
    return DataCollectionInstance(
        t,
        instance.slot_duration,
        np.where(empty, 0, t - 1 - ends),
        np.where(empty, -1, t - 1 - starts),
        flat.rates[source],
        flat.powers[source],
        instance.budgets_array(),
    )


def relabel_sensors(
    instance: DataCollectionInstance, permutation: Optional[Sequence[int]] = None
) -> DataCollectionInstance:
    """Permute sensor ids (default: reverse order).

    A pure renaming: every aggregate quantity (feasibility, LP bound,
    optimum) is invariant.
    """
    n = instance.num_sensors
    if permutation is None:
        permutation = list(range(n))[::-1]
    if sorted(permutation) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {permutation}")
    ids = np.asarray(permutation, dtype=np.int64)
    starts, ends = instance.window_bounds()
    return instance.gather(ids, starts[ids], ends[ids])


def scale_profits(
    instance: DataCollectionInstance, factor: float
) -> DataCollectionInstance:
    """Scale every transmission rate by ``factor > 0``.

    Costs and budgets are untouched, so the feasible set is identical
    and every objective value (LP bound, optimum, any exact solver's
    output) scales by exactly ``factor``.
    """
    if factor <= 0:
        raise ValueError(f"factor must be > 0, got {factor}")
    flat = instance.flat_pairs()
    return DataCollectionInstance(
        instance.num_slots,
        instance.slot_duration,
        *instance.window_bounds(),
        flat.rates * factor,
        flat.powers,
        instance.budgets_array(),
    )


def scale_energy(
    instance: DataCollectionInstance, factor: float
) -> DataCollectionInstance:
    """Scale every transmission power *and* every budget by ``factor > 0``.

    The energy constraint (4) is invariant under this joint rescaling,
    so feasibility, the LP bound and the optimum are all unchanged.
    """
    if factor <= 0:
        raise ValueError(f"factor must be > 0, got {factor}")
    flat = instance.flat_pairs()
    return DataCollectionInstance(
        instance.num_slots,
        instance.slot_duration,
        *instance.window_bounds(),
        flat.rates,
        flat.powers * factor,
        instance.budgets_array() * factor,
    )


#: The relation table: name -> (transform, lp_bound_factor).
_RELATIONS: Dict[str, Tuple[Callable[[DataCollectionInstance], DataCollectionInstance], float]] = {
    "reversal": (reverse_slots, 1.0),
    "relabeling": (relabel_sensors, 1.0),
    "profit_scaling": (lambda inst: scale_profits(inst, 3.0), 3.0),
    "energy_scaling": (lambda inst: scale_energy(inst, 2.0), 1.0),
}


# ----------------------------------------------------------------------
def default_algorithms(instance: DataCollectionInstance) -> Dict[str, Any]:
    """The registered algorithms applicable to ``instance``: everything,
    minus the MaxMatch family unless
    :func:`~repro.core.offline_maxmatch.fixed_power_of` finds the one
    power of the Section VI special case."""
    from repro.sim.algorithms import ALGORITHMS, requires_fixed_power

    try:
        fixed_power_of(instance)
        fixed = True
    except ValueError:
        fixed = False
    return {
        name: factory()
        for name, factory in ALGORITHMS.items()
        if fixed or not requires_fixed_power(name)
    }


def _run_algorithm(algo, instance: DataCollectionInstance, gamma: int):
    allocation, _messages = algo.run(instance, gamma)
    return allocation


def check_instance(
    instance: DataCollectionInstance,
    gamma: int,
    algorithms: Optional[Mapping[str, Any]] = None,
    relations: bool = True,
) -> List[FuzzFinding]:
    """Run all cross-checks on one instance; returns every finding.

    ``algorithms`` maps names to
    :class:`~repro.sim.algorithms.TourAlgorithm`-shaped objects (a
    ``run(instance, gamma)`` method); ``None`` selects every applicable
    registered algorithm.  ``relations=False`` skips the metamorphic
    pass (the shrinker disables it for findings that do not need it).
    """
    if algorithms is None:
        algorithms = default_algorithms(instance)
    findings: List[FuzzFinding] = []
    allocations: Dict[str, Any] = {}
    objectives: Dict[str, float] = {}

    for name, algo in algorithms.items():
        try:
            allocation = _run_algorithm(algo, instance, gamma)
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            findings.append(
                FuzzFinding("crash", name, "run", f"{type(exc).__name__}: {exc}")
            )
            continue
        allocations[name] = allocation
        certificate = certify(instance, allocation, algorithm=name)
        objectives[name] = certificate.objective_bits
        for failed in certificate.failures():
            findings.append(
                FuzzFinding("certificate", name, failed.name, failed.detail)
            )

    # Cross-algorithm invariant: an online variant never beats the exact
    # offline optimum of its family.
    if "Online_MaxMatch" in objectives and "Offline_MaxMatch" in objectives:
        online, offline = objectives["Online_MaxMatch"], objectives["Offline_MaxMatch"]
        if online > offline + _RTOL * max(1.0, abs(offline)):
            findings.append(
                FuzzFinding(
                    "invariant",
                    "Online_MaxMatch",
                    "online_le_offline",
                    f"online objective {online:.6g} exceeds exact offline "
                    f"optimum {offline:.6g}",
                )
            )

    if relations:
        findings.extend(_check_relations(instance, gamma, algorithms, allocations))
    return findings


def _check_relations(
    instance: DataCollectionInstance,
    gamma: int,
    algorithms: Mapping[str, Any],
    allocations: Mapping[str, Any],
) -> List[FuzzFinding]:
    """The metamorphic pass: transform the instance, re-solve, compare.

    ``allocations`` holds what :func:`check_instance` already solved on
    the base instance, so the base objectives are read, not re-solved.
    """
    from repro.core.lp import dcmp_lp_upper_bound

    findings: List[FuzzFinding] = []
    solvers = {
        name: algo for name, algo in algorithms.items() if name in _METAMORPHIC_ALGORITHMS
    }
    if not solvers:
        return findings
    if any(name not in allocations for name in solvers):
        return findings  # a solver crashed; the certificate pass reported it
    base_bound = dcmp_lp_upper_bound(instance)
    base_objectives = {
        name: allocations[name].collected_bits(instance)
        for name in solvers
        if name in _EXACT_ALGORITHMS
    }

    for relation, (transform, bound_factor) in _RELATIONS.items():
        transformed = transform(instance)
        expected_bound = base_bound * bound_factor
        got_bound = dcmp_lp_upper_bound(transformed)
        if not np.isclose(got_bound, expected_bound, rtol=_RTOL, atol=1e-6):
            findings.append(
                FuzzFinding(
                    "metamorphic",
                    "lp_bound",
                    relation,
                    f"LP bound {base_bound:.6g} -> {got_bound:.6g} under "
                    f"{relation}; expected {expected_bound:.6g}",
                )
            )
        for name, algo in solvers.items():
            try:
                allocation = _run_algorithm(algo, transformed, gamma)
            except Exception as exc:  # noqa: BLE001
                findings.append(
                    FuzzFinding(
                        "metamorphic",
                        name,
                        relation,
                        f"crashed on {relation}-transformed instance: "
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            audit = allocation.audit(transformed)
            if not audit.feasible:
                findings.append(
                    FuzzFinding(
                        "metamorphic",
                        name,
                        relation,
                        f"infeasible allocation on {relation}-transformed instance",
                    )
                )
                continue
            if name in _EXACT_ALGORITHMS:
                factor = bound_factor if relation == "profit_scaling" else 1.0
                expected = base_objectives[name] * factor
                got = audit.objective
                if not np.isclose(got, expected, rtol=_RTOL, atol=1e-6):
                    findings.append(
                        FuzzFinding(
                            "metamorphic",
                            name,
                            relation,
                            f"exact objective changed under {relation}: "
                            f"{expected:.6g} -> {got:.6g}",
                        )
                    )
    return findings


# ----------------------------------------------------------------------
def _draw_instance(
    rng: np.random.Generator,
    run_index: int,
    max_slots: int,
    max_sensors: int,
) -> DataCollectionInstance:
    """One random instance with 0 to ``max_sensors`` sensors (the empty
    network included); every third run uses the fixed-power special
    case so the MaxMatch family is exercised too."""
    num_slots = int(rng.integers(6, max_slots + 1))
    num_sensors = int(rng.integers(0, max_sensors + 1))
    fixed_power = 0.3 if run_index % 3 == 0 else None
    return random_instance(
        rng,
        num_slots=num_slots,
        num_sensors=num_sensors,
        max_window=min(6, num_slots),
        fixed_power=fixed_power,
    )


def run_fuzz(
    runs: int,
    seed: int = 0,
    max_slots: int = 12,
    max_sensors: int = 5,
    algorithms: Optional[Mapping[str, Any]] = None,
    shrink: bool = True,
    corpus_dir: Optional[str] = None,
    max_failures: int = 10,
) -> FuzzReport:
    """Run the differential fuzz campaign.

    Parameters
    ----------
    runs:
        Number of random instances to check.
    seed:
        Root seed; run ``i`` derives its generator from ``[seed, i]``,
        so any single run is replayable in isolation.
    max_slots, max_sensors:
        Upper bounds on the drawn instance shape (kept small so the
        brute-force oracle stays in reach for every run).
    algorithms:
        Override the algorithm set (used by tests to inject broken
        solvers); ``None`` checks every applicable registered algorithm.
    shrink:
        Greedily shrink each failure to a minimal reproducer.
    corpus_dir:
        When set, persist each (shrunk) failure as canonical JSON under
        this directory (see :mod:`repro.verify.corpus`).
    max_failures:
        Stop the campaign after this many failures (shrinking is the
        expensive part; a broken solver fails almost every run).

    Notes
    -----
    Records ``fuzz.runs`` / ``fuzz.findings`` counters and a
    ``fuzz.check`` timer on the metrics registry.
    """
    from repro.verify.shrink import shrink_instance

    if runs < 0:
        raise ValueError(f"runs must be >= 0, got {runs}")
    registry = get_registry()
    report = FuzzReport(runs=runs, seed=seed)
    started = time.perf_counter()
    for run_index in range(runs):
        rng = np.random.default_rng([seed, run_index])
        instance = _draw_instance(rng, run_index, max_slots, max_sensors)
        gamma = int(rng.integers(1, 7))
        algos = algorithms if algorithms is not None else default_algorithms(instance)
        registry.inc("fuzz.runs")
        with phase("fuzz.check"):
            findings = check_instance(instance, gamma, algorithms=algos)
        report.checked_runs += 1
        report.algorithm_runs += len(algos)
        if not findings:
            continue
        registry.inc("fuzz.findings", len(findings))
        finding = findings[0]
        _log.warning(
            "fuzz run %d (seed %d): %s/%s/%s — %s",
            run_index,
            seed,
            finding.kind,
            finding.algorithm,
            finding.check,
            finding.detail,
        )
        failure = FuzzFailure(
            finding=finding,
            instance=instance,
            gamma=gamma,
            seed=seed,
            run_index=run_index,
            original_shape=(instance.num_sensors, instance.num_slots),
        )
        if shrink:
            key = finding.key()

            def reproduces(candidate: DataCollectionInstance) -> bool:
                candidate_algos = (
                    algorithms
                    if algorithms is not None
                    else default_algorithms(candidate)
                )
                relations = finding.kind == "metamorphic"
                for f in check_instance(
                    candidate, gamma, algorithms=candidate_algos, relations=relations
                ):
                    if f.key() == key:
                        return True
                return False

            with phase("fuzz.shrink"):
                failure.instance = shrink_instance(instance, reproduces)
            failure.shrunk = True
        report.failures.append(failure)
        if corpus_dir is not None:
            from repro.verify.corpus import save_failure

            path = save_failure(failure, corpus_dir)
            report.corpus_paths.append(str(path))
        if len(report.failures) >= max_failures:
            _log.warning("fuzz: stopping after %d failures", max_failures)
            break
    report.elapsed_s = time.perf_counter() - started
    return report
