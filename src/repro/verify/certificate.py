"""Solution certificates: structured, machine-readable correctness evidence.

:func:`certify` evaluates an allocation against an instance and returns
a :class:`Certificate` — a JSON-serialisable dataclass recording each of
the paper's constraints (1)–(4) as a named :class:`CheckResult` with a
slack value and machine-readable violation details, plus the bound
checks that make the verdict *quantitative*:

* ``lp_upper_bound`` — the objective never exceeds the DCMP LP
  relaxation optimum (Section II.D);
* ``exact_optimum`` — on instances small enough to enumerate, the
  objective never exceeds the brute-force optimum;
* ``approximation_guarantee`` — algorithms with a proven ratio
  (``Offline_Appro``'s ``1/(1+β)`` of Theorem 2, ``Offline_MaxMatch``'s
  exactness of Section VI) actually achieve it.

Unlike :meth:`Allocation.check_feasible`, nothing here raises on a bad
allocation: failures come back as data, so the simulator, the planning
service (``"certify": true``) and the fuzzer can all persist, compare
and replay them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.exact import brute_force_optimum
from repro.core.instance import DataCollectionInstance
from repro.core.lp import dcmp_lp_upper_bound
from repro.obs import get_registry, phase

__all__ = [
    "CheckResult",
    "Certificate",
    "certify",
    "render_certificate",
    "RATIO_GUARANTEES",
]

#: Document format stamped into every serialised certificate.
FORMAT = "repro.certificate"
FORMAT_VERSION = 1

#: Checks that realise the paper's constraints (1)-(4); a certificate is
#: *feasible* iff all of these pass (bound checks are separate).
CONSTRAINT_CHECKS = ("horizon", "sensor_ids", "windows", "slot_exclusivity", "budgets")

#: Proven per-tour approximation ratios by registered algorithm name.
#: ``Offline_Appro`` runs an exact knapsack by default, so Theorem 2's
#: ``1/(1+β)`` gives 1/2; ``Offline_MaxMatch`` is exact (Section VI).
#: Online algorithms have no guarantee against the *global* optimum
#: (their ratio is against the interval-restricted optimum), so they are
#: deliberately absent.
RATIO_GUARANTEES: Dict[str, float] = {
    "Offline_Appro": 0.5,
    "Offline_MaxMatch": 1.0,
}

#: Absolute tolerance in bits of the bound checks (constraint (4)'s
#: tolerance in joules is :data:`repro.core.allocation.BUDGET_EPS`).
_ATOL = 1e-9

#: Skip the brute-force bound when ``T * n`` exceeds this many cells.
DEFAULT_EXACT_CELL_LIMIT = 96

#: Node cap handed to the brute-force oracle (kept modest: certificates
#: should be cheap enough to compute inline in the service).
DEFAULT_EXACT_MAX_NODES = 500_000


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named certificate check.

    Attributes
    ----------
    name:
        Stable machine-readable check identifier (e.g. ``"budgets"``).
    passed:
        Whether the check holds.
    slack:
        How far from the boundary the check sits, in the check's native
        unit (joules for ``budgets``, bits for the bound checks);
        negative when violated, ``None`` for purely structural checks.
    detail:
        One human-readable sentence.
    violations:
        Machine-readable violation records (empty when passed).
    """

    name: str
    passed: bool
    slack: Optional[float] = None
    detail: str = ""
    violations: Tuple[Dict[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict form."""
        return {
            "name": self.name,
            "passed": self.passed,
            "slack": self.slack,
            "detail": self.detail,
            "violations": [dict(v) for v in self.violations],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "CheckResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(doc["name"]),
            passed=bool(doc["passed"]),
            slack=None if doc.get("slack") is None else float(doc["slack"]),
            detail=str(doc.get("detail", "")),
            violations=tuple(dict(v) for v in doc.get("violations", [])),
        )


@dataclass(frozen=True)
class Certificate:
    """Structured correctness evidence for one (instance, allocation).

    Produced by :func:`certify`; serialisable via :meth:`to_dict` /
    :meth:`to_json` and reconstructible via :meth:`from_dict` /
    :meth:`from_json` for persistence in fuzz corpora and service
    responses.
    """

    algorithm: Optional[str]
    num_sensors: int
    num_slots: int
    slot_duration: float
    objective_bits: float
    checks: Tuple[CheckResult, ...]
    lp_bound_bits: Optional[float] = None
    optimum_bits: Optional[float] = None
    guarantee: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def feasible(self) -> bool:
        """Whether every constraint (1)-(4) check passed."""
        return all(c.passed for c in self.checks if c.name in CONSTRAINT_CHECKS)

    @property
    def passed(self) -> bool:
        """Whether every check — constraints and bounds — passed."""
        return all(c.passed for c in self.checks)

    @property
    def verdict(self) -> str:
        """``"pass"`` or ``"fail"``."""
        return "pass" if self.passed else "fail"

    @property
    def lp_fraction(self) -> Optional[float]:
        """``objective / LP bound`` — a certified lower bound on the
        fraction of optimum achieved (``None`` without an LP bound)."""
        if self.lp_bound_bits is None:
            return None
        if self.lp_bound_bits <= 0:
            return 1.0 if self.objective_bits <= 0 else 0.0
        return self.objective_bits / self.lp_bound_bits

    @property
    def approximation_ratio(self) -> Optional[float]:
        """``objective / brute-force optimum`` when the optimum is known."""
        if self.optimum_bits is None:
            return None
        if self.optimum_bits <= 0:
            return 1.0
        return self.objective_bits / self.optimum_bits

    def check(self, name: str) -> CheckResult:
        """The check named ``name`` (raises ``KeyError`` if absent)."""
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"certificate has no check named {name!r}")

    def failures(self) -> List[CheckResult]:
        """All failed checks (empty when the certificate passes)."""
        return [c for c in self.checks if not c.passed]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (round-trips through :meth:`from_dict`)."""
        return {
            "format": FORMAT,
            "version": FORMAT_VERSION,
            "algorithm": self.algorithm,
            "num_sensors": self.num_sensors,
            "num_slots": self.num_slots,
            "slot_duration": self.slot_duration,
            "objective_bits": self.objective_bits,
            "lp_bound_bits": self.lp_bound_bits,
            "optimum_bits": self.optimum_bits,
            "guarantee": self.guarantee,
            "lp_fraction": self.lp_fraction,
            "approximation_ratio": self.approximation_ratio,
            "feasible": self.feasible,
            "verdict": self.verdict,
            "checks": [c.to_dict() for c in self.checks],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Certificate":
        """Inverse of :meth:`to_dict` (validates the envelope)."""
        if doc.get("format") != FORMAT:
            raise ValueError(f"not a certificate document: format={doc.get('format')!r}")
        if doc.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported certificate version {doc.get('version')!r}")
        return cls(
            algorithm=doc.get("algorithm"),
            num_sensors=int(doc["num_sensors"]),
            num_slots=int(doc["num_slots"]),
            slot_duration=float(doc["slot_duration"]),
            objective_bits=float(doc["objective_bits"]),
            checks=tuple(CheckResult.from_dict(c) for c in doc.get("checks", [])),
            lp_bound_bits=(
                None if doc.get("lp_bound_bits") is None else float(doc["lp_bound_bits"])
            ),
            optimum_bits=(
                None if doc.get("optimum_bits") is None else float(doc["optimum_bits"])
            ),
            guarantee=None if doc.get("guarantee") is None else float(doc["guarantee"]),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON string form."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Parse a certificate from its JSON form."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check(
    name: str,
    passed: bool,
    slack: Optional[float],
    if_passed: str,
    if_failed: str,
    violations: Tuple[Dict[str, Any], ...],
) -> CheckResult:
    """A named check: ``if_passed`` is its detail when it holds, else
    ``if_failed`` with the violation records."""
    if passed:
        return CheckResult(name, True, slack, if_passed)
    return CheckResult(name, False, slack, if_failed, violations)


def _constraint_checks(
    instance: DataCollectionInstance, allocation: Allocation
) -> Tuple[List[CheckResult], float]:
    """Constraints (1)-(4) as named checks; returns ``(checks, objective)``.

    Both read the allocation's one
    :meth:`~repro.core.allocation.Allocation.audit`, the pass behind
    ``check_feasible``: the objective counts only *valid* assignments
    (known sensor, slot in window), so a certificate of a corrupt
    allocation still reports a meaningful number instead of raising.
    """
    audit = allocation.audit(instance)
    t, n = instance.num_slots, instance.num_sensors
    if not audit.horizon_ok:
        horizon = CheckResult(
            "horizon",
            False,
            float(allocation.num_slots - t),
            f"allocation horizon {allocation.num_slots} != instance horizon {t}",
            ({"allocation_slots": allocation.num_slots, "instance_slots": t},),
        )
        return [horizon] + [
            CheckResult(name, False, detail="not evaluated: horizon mismatch")
            for name in CONSTRAINT_CHECKS[1:]
        ], audit.objective

    unknown = ~audit.known
    ids = tuple(
        {"slot": j, "sensor": s, "num_sensors": n}
        for j, s in zip(audit.slots[unknown].tolist(), audit.sensors[unknown].tolist())
    )
    outside = audit.known & ~audit.valid
    sensors = audit.sensors[outside]
    starts, ends = (bounds[sensors].tolist() for bounds in instance.window_bounds())
    windows = tuple(
        {"slot": j, "sensor": s, "window": [start, end] if start <= end else None}
        for j, s, start, end in zip(audit.slots[outside].tolist(), sensors.tolist(), starts, ends)
    )
    budgets = instance.budgets_array()
    overdrawn = tuple(
        {"sensor": i, "budget_j": budget, "spent_j": spent, "excess_j": spent - budget}
        for i, budget, spent in zip(
            audit.over.tolist(), budgets[audit.over].tolist(), audit.spent[audit.over].tolist()
        )
    )
    # With no sensors there is no budget, hence no slack, to report.
    min_slack = float(np.min(budgets - audit.spent)) if n else None
    within = (
        f"per-sensor energy within budget (constraint (4)); min slack {min_slack:.6g} J"
        if n
        else "no sensors, so no budget to exceed (constraint (4) holds vacuously)"
    )
    checks = [
        CheckResult("horizon", True, slack=0.0, detail=f"allocation covers all T={t} slots"),
        _check(
            "sensor_ids",
            not ids,
            None,
            f"all assigned sensor ids within [0, {n - 1}]"
            if n
            else "no sensors, so no sensor id is valid; no slot is assigned",
            f"{len(ids)} slot(s) assigned to unknown sensors",
            ids,
        ),
        _check(
            "windows",
            not windows,
            None,
            "every assignment falls inside its sensor's availability window "
            "A(v_i) (constraints (1)+(2))",
            f"{len(windows)} assignment(s) outside A(v_i)",
            windows,
        ),
        # Constraint (3) holds by construction of the slot_owner encoding —
        # recorded explicitly so the certificate enumerates all four.
        CheckResult(
            "slot_exclusivity",
            True,
            detail="at most one sensor per slot (constraint (3); holds by encoding)",
        ),
        _check(
            "budgets",
            not overdrawn,
            min_slack,
            within,
            f"{len(overdrawn)} sensor(s) over budget",
            overdrawn,
        ),
    ]
    return checks, audit.objective


# ----------------------------------------------------------------------
def certify(
    instance: DataCollectionInstance,
    allocation: Allocation,
    algorithm: Optional[str] = None,
    lp_bound_bits: Optional[float] = None,
    exact_cell_limit: int = DEFAULT_EXACT_CELL_LIMIT,
    exact_max_nodes: int = DEFAULT_EXACT_MAX_NODES,
    guarantee: Optional[float] = None,
) -> Certificate:
    """Produce a :class:`Certificate` for ``allocation`` on ``instance``.

    Parameters
    ----------
    instance, allocation:
        The pair to certify.  Never raises on an infeasible allocation —
        failures come back as data.
    algorithm:
        Registered algorithm name that produced the allocation; selects
        the proven ratio from :data:`RATIO_GUARANTEES` (if any) for the
        ``approximation_guarantee`` check.
    lp_bound_bits:
        An LP bound the caller already holds (perfbench's in-process
        replay passes the one it timed).  Without it the bound comes
        from :func:`~repro.core.lp.dcmp_lp_upper_bound`, which is
        memoised on the instance, so certifying several allocations of
        one instance solves the LP once.
    exact_cell_limit:
        Attempt the brute-force optimum only when ``T·n`` is at most
        this many cells (the oracle is exponential).
    exact_max_nodes:
        Search-node cap handed to the oracle; exceeding it silently
        skips the ``exact_optimum`` check.
    guarantee:
        Override the ratio guarantee (``None`` → registry lookup).

    Notes
    -----
    Records ``verify.certificates`` / ``verify.certificate_failures``
    counters and a ``verify.certify`` timer on the metrics registry.
    """
    registry = get_registry()
    # Priced before the phase opens, so the first certificate of an
    # instance does not nest its ``lp.dcmp_bound`` solve and the two
    # timers add up without double counting.
    bound = float(dcmp_lp_upper_bound(instance) if lp_bound_bits is None else lp_bound_bits)
    with phase("verify.certify"):
        checks, objective = _constraint_checks(instance, allocation)
        horizon_ok = checks[0].passed

        tol = _ATOL + 1e-9 * max(1.0, abs(bound))
        checks.append(
            _check(
                "lp_upper_bound",
                objective <= bound + tol,
                bound - objective,
                f"objective {objective:.6g} <= LP bound {bound:.6g} bits",
                f"objective {objective:.6g} EXCEEDS LP bound {bound:.6g} bits",
                ({"objective_bits": objective, "lp_bound_bits": bound},),
            )
        )

        optimum: Optional[float] = None
        if horizon_ok and instance.num_slots * instance.num_sensors <= exact_cell_limit:
            try:
                optimum = float(
                    brute_force_optimum(instance, max_nodes=exact_max_nodes)
                    .collected_bits(instance)
                )
            except RuntimeError:
                optimum = None  # search too large; skip the exact checks
        if optimum is not None:
            tol = _ATOL + 1e-9 * max(1.0, abs(optimum))
            checks.append(
                _check(
                    "exact_optimum",
                    objective <= optimum + tol,
                    optimum - objective,
                    f"objective {objective:.6g} <= optimum {optimum:.6g} bits",
                    f"objective {objective:.6g} EXCEEDS brute-force optimum "
                    f"{optimum:.6g} bits",
                    ({"objective_bits": objective, "optimum_bits": optimum},),
                )
            )

        ratio = guarantee
        if ratio is None and algorithm is not None:
            ratio = RATIO_GUARANTEES.get(algorithm)
        if ratio is not None and optimum is not None:
            floor = ratio * optimum
            tol = _ATOL + 1e-9 * max(1.0, abs(floor))
            checks.append(
                _check(
                    "approximation_guarantee",
                    objective >= floor - tol,
                    objective - floor,
                    f"objective {objective:.6g} >= {ratio:g} * optimum ({floor:.6g} bits)",
                    f"objective {objective:.6g} BELOW the proven "
                    f"{ratio:g}-approximation floor {floor:.6g} bits",
                    ({"objective_bits": objective, "guarantee": ratio, "floor_bits": floor},),
                )
            )

        certificate = Certificate(
            algorithm=algorithm,
            num_sensors=instance.num_sensors,
            num_slots=instance.num_slots,
            slot_duration=instance.slot_duration,
            objective_bits=objective,
            checks=tuple(checks),
            lp_bound_bits=bound,
            optimum_bits=optimum,
            guarantee=ratio,
        )
    registry.inc("verify.certificates")
    if not certificate.passed:
        registry.inc("verify.certificate_failures")
    return certificate


def render_certificate(certificate: Certificate) -> str:
    """Human-readable multi-line rendering (the CLI's default output)."""
    lines = [
        f"certificate: {certificate.verdict.upper()}"
        + (f" [{certificate.algorithm}]" if certificate.algorithm else ""),
        f"instance: n={certificate.num_sensors}, T={certificate.num_slots}, "
        f"tau={certificate.slot_duration:g}",
        f"objective: {certificate.objective_bits / 1e6:.4f} Mb",
    ]
    if certificate.lp_bound_bits is not None:
        lines.append(
            f"LP bound:  {certificate.lp_bound_bits / 1e6:.4f} Mb "
            f"(fraction {certificate.lp_fraction:.1%})"
        )
    if certificate.optimum_bits is not None:
        lines.append(
            f"optimum:   {certificate.optimum_bits / 1e6:.4f} Mb "
            f"(ratio {certificate.approximation_ratio:.1%})"
        )
    lines.append(f"{'check':<26} {'result':<6} {'slack':>14}  detail")
    for c in certificate.checks:
        slack = "-" if c.slack is None else f"{c.slack:.6g}"
        lines.append(
            f"{c.name:<26} {'pass' if c.passed else 'FAIL':<6} {slack:>14}  {c.detail}"
        )
    for c in certificate.failures():
        for v in c.violations:
            lines.append(f"  {c.name} violation: {v}")
    return "\n".join(lines)
