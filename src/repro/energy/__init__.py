"""Energy subsystem: solar profiles and harvest models.

Implements the paper's energy model (Section II.B): sensors are powered
by renewable sources whose replenishment is slow relative to consumption;
the energy stored at the start of tour ``j`` is

    P_j(v) = min(P_{j-1}(v) + Q_{j-1}(v) - O_{j-1}(v), B(v))

and serves as the per-tour energy budget
(:meth:`repro.network.network.SensorNetwork.withdraw` and
:meth:`~repro.network.network.SensorNetwork.deposit` apply it to every
node's charge at once).  The solar calibration follows
the measurements the paper cites (Liu et al. [14]): a 37×37 mm panel
collects 655.15 mWh over 48 h on a sunny day and 313.70 mWh on a partly
cloudy day.
"""

from repro.energy.solar import (
    CLOUDY_48H_MWH,
    REFERENCE_PANEL_AREA_MM2,
    SUNNY_48H_MWH,
    SolarDayProfile,
    cloudy_profile,
    sunny_profile,
)
from repro.energy.harvester import ConstantHarvester, HarvestModel, SolarHarvester

__all__ = [
    "SolarDayProfile",
    "sunny_profile",
    "cloudy_profile",
    "SUNNY_48H_MWH",
    "CLOUDY_48H_MWH",
    "REFERENCE_PANEL_AREA_MM2",
    "HarvestModel",
    "ConstantHarvester",
    "SolarHarvester",
]
