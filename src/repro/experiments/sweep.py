"""Generic parameter-sweep engine.

A sweep is a list of :class:`SweepPoint`\\ s — (scenario config, set of
algorithms, number of repeated random topologies).  Every repeat builds
one topology and runs **all** the point's algorithms on the *same*
battery state (``mutate=False``), exactly the paper's methodology
("each value in figures is the mean of the results by applying each
mentioned algorithm to 50 different network topologies").

Repeats fan out over a :class:`concurrent.futures.ProcessPoolExecutor`
(HPC-friendly: topologies are embarrassingly parallel; workers receive
only picklable configs + integer seed material).  Seeds derive from
``SeedSequence((root_seed, point_index, repeat))`` so results are
reproducible regardless of scheduling order or worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.lp import load_highs
from repro.obs import get_logger, get_registry, phase
from repro.sim.batch import TourSpec, run_tours
from repro.sim.scenario import ScenarioConfig

_log = get_logger("experiments.sweep")

__all__ = [
    "TOLERANCE_MB",
    "Claim",
    "SweepPoint",
    "SweepRecord",
    "SweepResult",
    "run_sweep",
    "aggregate",
    "claim",
]


@dataclass(frozen=True)
class SweepPoint:
    """One parameter point of a sweep.

    Attributes
    ----------
    config:
        The scenario setting.
    algorithms:
        Registered algorithm names to compare at this point.
    label:
        Free-form key/value tags carried into every record (e.g.
        ``{"panel": "r_s=5", "n": 300}``) for grouping in reports.
    """

    config: ScenarioConfig
    algorithms: Tuple[str, ...]
    label: Tuple[Tuple[str, object], ...] = ()
    #: Optional topology-pairing key: points sharing a ``seed_key`` get
    #: the *same* random topologies repeat-for-repeat, turning cross-
    #: point comparisons (e.g. τ sweeps) into paired comparisons that
    #: cancel topology noise.  ``None`` → seeds derive from the point's
    #: position in the sweep.
    seed_key: Optional[Tuple[int, ...]] = None

    @staticmethod
    def make(
        config: ScenarioConfig,
        algorithms: Sequence[str],
        seed_key: Optional[Tuple[int, ...]] = None,
        **label: object,
    ) -> "SweepPoint":
        """Convenience constructor with keyword labels."""
        return SweepPoint(
            config, tuple(algorithms), tuple(sorted(label.items())), seed_key
        )


@dataclass(frozen=True)
class SweepRecord:
    """One (point, repeat, algorithm) measurement."""

    label: Tuple[Tuple[str, object], ...]
    algorithm: str
    repeat: int
    seed: int
    collected_bits: float
    collected_megabits: float
    wall_time: float
    total_messages: int


@dataclass
class SweepResult:
    """All records of a sweep."""

    records: List[SweepRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Persistence (versioned JSON, mirrors repro.core.serialize style)
    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise all records as a versioned JSON document."""
        import json

        doc = {
            "format": "repro.sweep_result",
            "version": 1,
            "records": [
                {
                    "label": list(list(pair) for pair in r.label),
                    "algorithm": r.algorithm,
                    "repeat": r.repeat,
                    "seed": r.seed,
                    "collected_bits": r.collected_bits,
                    "collected_megabits": r.collected_megabits,
                    "wall_time": r.wall_time,
                    "total_messages": r.total_messages,
                }
                for r in self.records
            ],
        }
        return json.dumps(doc, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Inverse of :meth:`to_json` (validates the envelope)."""
        import json

        doc = json.loads(text)
        if doc.get("format") != "repro.sweep_result":
            raise ValueError(f"not a sweep-result document: {doc.get('format')!r}")
        if doc.get("version") != 1:
            raise ValueError(f"unsupported version {doc.get('version')!r}")
        records = [
            SweepRecord(
                label=tuple((k, v) for k, v in r["label"]),
                algorithm=r["algorithm"],
                repeat=int(r["repeat"]),
                seed=int(r["seed"]),
                collected_bits=float(r["collected_bits"]),
                collected_megabits=float(r["collected_megabits"]),
                wall_time=float(r["wall_time"]),
                total_messages=int(r["total_messages"]),
            )
            for r in doc["records"]
        ]
        return cls(records)

    def filter(self, **label: object) -> "SweepResult":
        """Records whose label matches every given key/value."""
        items = label.items()
        kept = [
            r
            for r in self.records
            if all(dict(r.label).get(k) == v for k, v in items)
        ]
        return SweepResult(kept)

    def label_values(self, key: str) -> List[object]:
        """Distinct values of a label key, in first-seen order."""
        seen: Dict[object, None] = {}
        for r in self.records:
            val = dict(r.label).get(key)
            if val is not None and val not in seen:
                seen[val] = None
        return list(seen)

    def algorithms(self) -> List[str]:
        """Distinct algorithm names, in first-seen order."""
        seen: Dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.algorithm, None)
        return list(seen)


def _derive_seed(root_seed: int, key: Tuple[int, ...], repeat: int) -> int:
    """Well-mixed 64-bit seed for (seed-key, repeat)."""
    ss = np.random.SeedSequence((root_seed, *key, repeat))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_unit(
    args: Tuple[ScenarioConfig, Tuple[str, ...], Tuple[Tuple[str, object], ...], int, int]
) -> List[SweepRecord]:
    """Worker: one topology, all of the point's algorithms, solved over
    one shared instance by :func:`~repro.sim.batch.run_tours`."""
    config, algorithms, label, repeat, seed = args
    get_registry().inc("sweep.units")
    with phase("sweep.unit"):
        results = run_tours([TourSpec(config, name, seed) for name in algorithms])
    return [
        SweepRecord(
            label=label,
            algorithm=name,
            repeat=repeat,
            seed=seed,
            collected_bits=result.collected_bits,
            collected_megabits=result.collected_megabits,
            wall_time=result.wall_time,
            total_messages=result.messages.total_messages if result.messages else 0,
        )
        for name, result in zip(algorithms, results)
    ]


def run_sweep(
    points: Sequence[SweepPoint],
    repeats: int = 5,
    root_seed: int = 20130701,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Execute a sweep.

    Parameters
    ----------
    points:
        The parameter points.
    repeats:
        Random topologies per point (the paper used 50).
    root_seed:
        Root of the deterministic seed tree.
    jobs:
        Worker processes; ``None`` → ``os.cpu_count()``, ``1`` or ``0``
        → run in-process (no pool — simpler debugging, required under
        pytest-cov style tooling).

    Returns
    -------
    SweepResult
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    units = [
        (
            pt.config,
            pt.algorithms,
            pt.label,
            rep,
            _derive_seed(root_seed, pt.seed_key or (pi,), rep),
        )
        for pi, pt in enumerate(points)
        for rep in range(repeats)
    ]
    result = SweepResult()
    # Before any unit, so no record's wall_time holds the import; pool
    # workers fork with it loaded.
    load_highs()
    with phase("sweep.run"):
        if jobs in (0, 1):
            _log.info("sweep: %d units in-process", len(units))
            for unit in units:
                result.records.extend(_run_unit(unit))
            return result
        max_workers = jobs or os.cpu_count() or 1
        max_workers = min(max_workers, len(units)) or 1
        _log.info("sweep: %d units over %d workers", len(units), max_workers)
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            for batch in pool.map(_run_unit, units, chunksize=1):
                result.records.extend(batch)
    return result


def aggregate(
    result: SweepResult,
    group_keys: Sequence[str],
    value: str = "collected_megabits",
) -> Dict[Tuple, Dict[str, Tuple[float, float, int]]]:
    """Mean/std/count of ``value`` grouped by label keys and algorithm.

    Returns ``{group_tuple: {algorithm: (mean, std, count)}}`` where
    ``group_tuple`` follows ``group_keys`` order.
    """
    buckets: Dict[Tuple, Dict[str, List[float]]] = {}
    for r in result.records:
        lab = dict(r.label)
        group = tuple(lab.get(k) for k in group_keys)
        buckets.setdefault(group, {}).setdefault(r.algorithm, []).append(
            getattr(r, value)
        )
    out: Dict[Tuple, Dict[str, Tuple[float, float, int]]] = {}
    for group, algos in buckets.items():
        out[group] = {
            name: (float(np.mean(vals)), float(np.std(vals)), len(vals))
            for name, vals in algos.items()
        }
    return out


#: Throughput means are float sums: two equal allocations may differ by
#: rounding, so "≥" claims between algorithms allow this slack (Mb).
TOLERANCE_MB: float = 1e-6


class Claim(NamedTuple):
    """One row of an experiment's ``check(result)``: a claim and its verdict.

    ``value`` is the measured statistic the claim bounds: its worst case
    over the swept points for a claim that must hold at every point.  It
    is ``None`` when the run did not sweep the dimension the claim is
    about (one network size, say); the claim then holds vacuously.
    """

    name: str
    held: bool
    value: Optional[float]


def claim(name: str, value: Optional[float], holds: Callable[[float], bool]) -> Claim:
    """Judge ``value`` with ``holds``; a ``None`` value holds vacuously."""
    return Claim(name, value is None or bool(holds(value)), value)
