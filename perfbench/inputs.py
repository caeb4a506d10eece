"""Seed-derived inputs for every workload.

Everything the program receives — scenario configs, topology seeds, the
order of the size cycle, the service's request mix and its arrival
schedule — is generated here from the workload seed and nothing else, so
one seed always yields the same inputs.  The program only ever sees the
generated configs and request bodies.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List

#: ``appro-sweep``: the Figure 2 sizes on the paper's default scenario.
APPRO_SIZES = (100, 300, 600)
APPRO_ALGORITHMS = ("Offline_Appro", "Online_Appro")

#: ``maxmatch-sweep``: the Figures 3-4 fixed-power case.  n=60 on a
#: 1.5 km road has about 3,600 matching edges (under the 4,000-edge
#: ``engine="auto"`` switch, so the ``flow`` engine); n=100 and n=300 on
#: the 10 km road have about 6,400 and 19,200 (the ``lp`` engine).
MAXMATCH_SHAPES = ((60, 1_500.0), (100, 10_000.0), (300, 10_000.0))
MAXMATCH_ALGORITHMS = ("Offline_MaxMatch", "Online_MaxMatch")
FIXED_POWER_W = 0.3

#: ``perpetual``: n=300 networks starting at 17:00 with a 3 h rest after
#: each 2,000 s tour, so 8 tours span about 28 h: dusk, a night that
#: drains the batteries, and the next day that refills them.
PERPETUAL_SENSORS = 300
PERPETUAL_START_S = 17 * 3600.0
PERPETUAL_REST_S = 3 * 3600.0
PERPETUAL_TOURS = 8
PERPETUAL_ALGORITHMS = ("Offline_Appro", "Online_Appro")

#: ``service``: fresh solves of one multi-rate scenario with one algorithm.
SERVICE_SCENARIO = {"num_sensors": 100}
SERVICE_ALGORITHM = "Offline_Appro"
SERVICE_CERTIFY_SHARE = 0.1


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across runs
    # and Python versions.
    return random.Random(f"{workload}/{seed}/{stream}")


def _distinct_seeds(rng: random.Random, count: int, taken: set) -> List[int]:
    out = []
    while len(out) < count:
        value = rng.randrange(1, 2**31 - 1)
        if value not in taken:
            taken.add(value)
            out.append(value)
    return out


@dataclass(frozen=True)
class Topology:
    """One scenario to build and the algorithms that solve it."""

    config: Dict
    seed: int
    algorithms: tuple


def appro_sweep(seed: int, topologies: int) -> List[Topology]:
    """``topologies`` default-scenario topologies, n cycling over
    :data:`APPRO_SIZES` in a seed-derived order."""
    rng = _rng("appro-sweep", seed, "topologies")
    cycle = list(APPRO_SIZES)
    rng.shuffle(cycle)
    seeds = _distinct_seeds(rng, topologies, set())
    return [
        Topology({"num_sensors": cycle[i % len(cycle)]}, seeds[i], APPRO_ALGORITHMS)
        for i in range(topologies)
    ]


def maxmatch_sweep(seed: int, topologies: int) -> List[Topology]:
    """Fixed-power topologies cycling over :data:`MAXMATCH_SHAPES`."""
    rng = _rng("maxmatch-sweep", seed, "topologies")
    cycle = list(MAXMATCH_SHAPES)
    rng.shuffle(cycle)
    seeds = _distinct_seeds(rng, topologies, set())
    out = []
    for i in range(topologies):
        sensors, road = cycle[i % len(cycle)]
        config = {"num_sensors": sensors, "path_length": road, "fixed_power": FIXED_POWER_W}
        out.append(Topology(config, seeds[i], MAXMATCH_ALGORITHMS))
    return out


def perpetual(seed: int, networks_per_algorithm: int) -> List[Topology]:
    """n=300 networks, each run by one multi-rate algorithm for
    :data:`PERPETUAL_TOURS` tours."""
    rng = _rng("perpetual", seed, "networks")
    count = networks_per_algorithm * len(PERPETUAL_ALGORITHMS)
    seeds = _distinct_seeds(rng, count, set())
    config = {"num_sensors": PERPETUAL_SENSORS, "start_time": PERPETUAL_START_S}
    return [
        Topology(config, seeds[i], (PERPETUAL_ALGORITHMS[i % len(PERPETUAL_ALGORITHMS)],))
        for i in range(count)
    ]


@dataclass(frozen=True)
class Request:
    """One scheduled ``POST /v1/solve``."""

    index: int
    due: float  # seconds after the phase starts
    kind: str  # "fresh" or "cached"
    body: bytes
    request_id: str

    @property
    def doc(self) -> Dict:
        return json.loads(self.body)


def solve_body(seed: int, certify: bool = False) -> bytes:
    doc = {"scenario": SERVICE_SCENARIO, "algorithm": SERVICE_ALGORITHM, "seed": seed}
    if certify:
        doc["certify"] = True
    return json.dumps(doc, sort_keys=True).encode("utf-8")


class ServiceInputs:
    """The service workload's request stream for one seed.

    Fresh requests draw topology seeds no other request of the run uses,
    so each is a cache miss; :data:`SERVICE_CERTIFY_SHARE` of them ask for
    a certificate.  Cached requests replay a small hot set, loaded once
    before measuring, that fits the server's result cache.
    """

    def __init__(self, seed: int, hot_set: int) -> None:
        self.seed = seed
        self._rng = _rng("service", seed, "requests")
        self._taken: set = set()
        self.hot_bodies = [solve_body(s) for s in _distinct_seeds(self._rng, hot_set, self._taken)]

    def schedule(self, phase: str, count: int, rate: float, fresh_share: float) -> List[Request]:
        """``count`` requests due on a Poisson schedule at ``rate`` per
        second: ``round(fresh_share * count)`` fresh solves and, as a
        second Poisson stream merged in, replays of hot-set entries."""
        rng = _rng("service", self.seed, f"schedule/{phase}")
        fresh = round(fresh_share * count)
        arrivals = [(due, "fresh") for due in _arrivals(rng, fresh, rate * fresh_share)]
        arrivals += [
            (due, "cached") for due in _arrivals(rng, count - fresh, rate * (1 - fresh_share))
        ]
        arrivals.sort()
        certified = set(rng.sample(range(fresh), round(SERVICE_CERTIFY_SHARE * fresh)))
        out = []
        fresh_index = 0
        for index, (due, kind) in enumerate(arrivals):
            if kind == "fresh":
                (topology_seed,) = _distinct_seeds(self._rng, 1, self._taken)
                body = solve_body(topology_seed, certify=fresh_index in certified)
                fresh_index += 1
            else:
                body = rng.choice(self.hot_bodies)
            out.append(Request(index, due, kind, body, f"pb-{self.seed}-{phase}-{index}"))
        return out


#: Arrivals are stratified in blocks of this many: see :func:`_arrivals`.
STRATUM = 10


def _arrivals(rng: random.Random, count: int, rate: float) -> List[float]:
    """Due times of ``count`` Poisson arrivals at ``rate`` per second.

    The gaps are stratified: each block of :data:`STRATUM` consecutive
    arrivals takes the exponential distribution's quantiles at
    ``(i + 0.5) / STRATUM``, in a seed-derived order.  Every seed and
    every stretch of the schedule thus gets the same mix of short and
    long gaps, arranged differently.  With independent gaps, a schedule
    of a few dozen solves queued so differently from seed to seed that
    the tail latency spread 37-65% between seeds.
    """
    due, out = 0.0, []
    for start in range(0, count, STRATUM):
        size = min(STRATUM, count - start)
        gaps = [-math.log(1.0 - (i + 0.5) / size) / rate for i in range(size)]
        rng.shuffle(gaps)
        for gap in gaps:
            due += gap
            out.append(due)
    return out
