"""Online distributed algorithms (paper Sections V and VI).

The mobile sink has no global knowledge here: it discovers sensors by
broadcasting ``Probe`` messages once per interval of ``Γ`` slots,
schedules only the registered sensors, and moves on.  The framework
(Algorithm 2) is scheduler-agnostic; plug in the GAP-based scheduler to
get ``Online_Appro`` or the matching-based scheduler to get
``Online_MaxMatch``.
"""

from repro.online.messages import MessageLog, MessageType
from repro.online.framework import IntervalRecord, OnlineResult, run_online
from repro.online.online_appro import GapIntervalScheduler, online_appro
from repro.online.online_maxmatch import MatchingIntervalScheduler, online_maxmatch

__all__ = [
    "MessageLog",
    "MessageType",
    "run_online",
    "OnlineResult",
    "IntervalRecord",
    "GapIntervalScheduler",
    "online_appro",
    "MatchingIntervalScheduler",
    "online_maxmatch",
]
