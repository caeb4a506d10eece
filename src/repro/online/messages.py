"""Message accounting for the online distributed framework.

Theorems 3 and 4 bound the framework's message complexity at ``O(n)``;
the :class:`MessageLog` records every protocol event so tests and
benchmarks can verify the bound empirically, distinguishing *broadcasts*
(one transmission by the sink) from *receptions* (per-sensor copies,
which is what the paper's counting argument tallies).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple

__all__ = ["MessageType", "MessageLog"]


class MessageType(str, Enum):
    """The four protocol messages of Algorithm 2."""

    PROBE = "probe"
    ACK = "ack"
    SCHEDULE = "schedule"
    FINISH = "finish"


@dataclass
class MessageLog:
    """Counts of protocol traffic during one tour.

    Attributes
    ----------
    broadcasts:
        Sink transmissions per message type (one per interval for
        probe/schedule/finish).
    receptions:
        Per-sensor message deliveries per type — e.g. a probe heard by
        ``N_j`` sensors adds ``N_j`` probe receptions.
    sensor_receptions:
        Per-sensor total deliveries (validates "each sensor receives at
        most a constant number of messages per tour").
    """

    broadcasts: Counter = field(default_factory=Counter)
    receptions: Counter = field(default_factory=Counter)
    sensor_receptions: Counter = field(default_factory=Counter)
    sensor_transmissions: Counter = field(default_factory=Counter)

    def record_broadcast(self, kind: MessageType, heard_by: List[int]) -> None:
        """A sink broadcast of ``kind`` heard by the given sensors."""
        self.broadcasts[kind] += 1
        self.receptions[kind] += len(heard_by)
        self.sensor_receptions.update(heard_by)

    def record_acks(self, senders: List[int]) -> None:
        """One Ack (registration) sent to the sink by each of ``senders``."""
        self.broadcasts[MessageType.ACK] += 0  # acks are unicast, not broadcast
        self.receptions[MessageType.ACK] += len(senders)
        self.sensor_transmissions.update(senders)

    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        """All protocol transmissions: sink broadcasts + sensor acks."""
        sink = sum(
            self.broadcasts[k]
            for k in (MessageType.PROBE, MessageType.SCHEDULE, MessageType.FINISH)
        )
        acks = self.receptions[MessageType.ACK]
        return sink + acks

    @property
    def total_receptions(self) -> int:
        """All per-sensor deliveries plus ack receptions at the sink."""
        return sum(self.receptions.values())

    def max_receptions_per_sensor(self) -> int:
        """The largest number of messages any one sensor received."""
        return max(self.sensor_receptions.values(), default=0)

    def summary(self) -> Dict[str, int]:
        """Flat dict for reports."""
        return {
            "probe_broadcasts": self.broadcasts[MessageType.PROBE],
            "schedule_broadcasts": self.broadcasts[MessageType.SCHEDULE],
            "finish_broadcasts": self.broadcasts[MessageType.FINISH],
            "acks": self.receptions[MessageType.ACK],
            "total_messages": self.total_messages,
            "total_receptions": self.total_receptions,
        }
