"""Small numeric helpers shared by the workloads: percentiles, the tail
rule, output digests and process memory readings.

Everything here is pure standard library so the self-tests run without
the program under test.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import struct
import time
from typing import Iterable, List, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (mean of the two middle samples when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples)``: the sample that has exactly
    ``beyond`` samples ranked above it, the percentile that sample sits
    at (``100 * (N - beyond) / N``) and the sample count ``N``.  Needs
    ``N > beyond``; fewer samples cannot support a tail claim.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {count}")
    return float(ordered[count - beyond - 1]), 100.0 * (count - beyond) / count, count


def digest(bits: Iterable[float]) -> str:
    """SHA-256 over the exact IEEE-754 bytes of ``bits``, in order.

    Two runs (or two commits) that collected bit-identical amounts in the
    same order produce the same digest.
    """
    h = hashlib.sha256()
    for value in bits:
        h.update(struct.pack("<d", float(value)))
    return h.hexdigest()


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, found by scanning ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ")".
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return sorted(children)


#: A :func:`calibration_round`'s typical time on the 2-core x86 VM the
#: bounds were set on.  Normalised timings are in units of that machine's
#: speed.
CALIBRATION_REFERENCE_S = 0.008


def calibration_round() -> float:
    """Seconds a fixed round of interpreter and numpy work takes now.

    The round mixes the two kinds of work the program does: Python-level
    loops over ints and dicts, and a sort and prefix sum over a numpy
    array.  Sampled between operations, its median tracks how fast the
    machine runs at the time.
    """
    import numpy as np

    started = time.perf_counter()
    acc, table = 0, {}
    for i in range(30_000):
        acc += i * i % 7
        table[i & 1023] = acc
    values = np.arange(100_000, dtype=np.float64)[::-1] * 0.5
    np.cumsum(np.sort(values))
    return time.perf_counter() - started


class Calibration:
    """Calibration rounds sampled through a run, and the speed they imply.

    ``speed`` is the reference round time over the median round time, so
    above 1 the machine ran faster than the reference.  Throughputs are
    divided by it and durations multiplied by it; a shared machine's fast
    and slow spells then move the figures much less than the program's
    own changes do.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(calibration_round())

    @property
    def speed(self) -> float:
        return CALIBRATION_REFERENCE_S / median(self.samples)
