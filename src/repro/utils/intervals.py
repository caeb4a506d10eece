"""Closed integer intervals of time-slot indices.

The paper reasons throughout in terms of *consecutive* slot windows:
``A(v) = [i_s, i_e]`` is the window in which sensor ``v`` can reach the
sink, a probe interval covers ``[a_j, b_j]``, and the online framework
intersects the two.  :class:`SlotInterval` captures that arithmetic once,
with the usual inclusive-endpoint convention used in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

__all__ = ["SlotInterval"]


@dataclass(frozen=True, order=True)
class SlotInterval:
    """A closed interval ``[start, end]`` of integer slot indices.

    ``start > end`` is disallowed; ``None`` represents "no slots".  Slots are 0-indexed internally
    (the paper uses 1-indexed slots; only the report layer converts).
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"empty interval: start={self.start} > end={self.end}")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def __contains__(self, slot: int) -> bool:
        return self.start <= slot <= self.end

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.end + 1))

    def slots(self) -> np.ndarray:
        """All slot indices in the interval as an ``int64`` array."""
        return np.arange(self.start, self.end + 1, dtype=np.int64)

    def intersection(self, other: "SlotInterval") -> Optional["SlotInterval"]:
        """Intersection with ``other``, or ``None`` if disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return SlotInterval(lo, hi)

    def shift(self, offset: int) -> "SlotInterval":
        """Translate both endpoints by ``offset``."""
        return SlotInterval(self.start + offset, self.end + offset)
