"""Scenario configuration — the paper's experimental environment as data.

Section VII.A, verbatim defaults:

* 100–600 homogeneous sensors randomly deployed along a 10,000 m path,
  lateral offset ≤ 180 m, transmission range 200 m;
* each sensor carries a 10 mm × 10 mm solar panel and a 10,000 J battery;
* the solar profile is calibrated to the cited measurements (655.15 mWh
  sunny / 313.70 mWh partly-cloudy per 48 h on a 37×37 mm panel);
* the 4-pairwise rate/power table of :data:`repro.network.radio.CC2420_LIKE_TABLE`;
* slot duration τ = 1 s, sink speed r_s ∈ {5, 10, 30} m/s.

The paper does not state the sensors' *initial* stored energy.  We model
it as the energy a node would have accumulated over a uniformly random
number of daylight hours (default ``U(0, 1)``), which puts nodes in the
energy-constrained regime the paper's discussion implies (see DESIGN.md,
substitutions table, and the calibration notes in EXPERIMENTS.md).  All
knobs are explicit fields, so any other convention is one dataclass away.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.core.instance import DataCollectionInstance
from repro.energy.harvester import SolarHarvester
from repro.energy.solar import cloudy_profile, sunny_profile
from repro.network.deployment import clustered_deployment, uniform_deployment
from repro.network.geometry import PiecewiseLinearPath
from repro.network.network import SensorNetwork
from repro.network.path import SinkTrajectory
from repro.network.radio import CC2420_LIKE_TABLE, RateTable
from repro.obs import phase
from repro.planning import PlannerConfig, plan_scenario
from repro.utils.rng import RngStream
from repro.utils.validation import (
    UnknownFieldError,
    check_nonnegative,
    check_positive,
)

__all__ = ["ScenarioConfig", "Scenario", "PAPER_DEFAULTS"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one experimental setting.

    All fields are plain numbers/strings so configs are picklable and
    hashable — the experiment sweeps fan configs out to worker
    processes.
    """

    num_sensors: int = 300
    path_length: float = 10_000.0
    max_offset: float = 180.0
    sink_speed: float = 5.0
    slot_duration: float = 1.0
    battery_capacity: float = 10_000.0
    panel_area_mm2: float = 100.0
    weather: str = "sunny"  # "sunny" | "cloudy" | "none"
    #: Initial stored energy = harvest accumulated over U(lo, hi) hours
    #: of daylight (see module docstring).  The default U(0, 1) h puts
    #: budgets at ~0–11 J against a 15–26 J full-window spend, i.e. the
    #: energy-constrained regime the paper's discussion describes;
    #: calibration notes in EXPERIMENTS.md.
    accumulation_hours: Tuple[float, float] = (0.0, 1.0)
    #: Time-of-day (seconds) at which tour 0 starts; 10:00 by default so
    #: tours run in daylight.
    start_time: float = 10.0 * 3600.0
    #: ``None`` → the paper's multi-rate table; a float → the fixed-power
    #: special case with that power in watts (Section VI uses 0.3 W).
    fixed_power: Optional[float] = None
    #: Override the probe-interval length Γ (slots).  ``None`` uses the
    #: paper's ``⌊R/(r_s·τ)⌋``; smaller values trade message overhead
    #: against probe-boundary loss (ablation A4).
    gamma_override: Optional[int] = None
    #: ``None`` → the paper's fixed straight-line tour (historical
    #: behavior, historical cache keys).  A :class:`PlannerConfig` (or
    #: mapping) → the sink trajectory is *designed* over the rectangular
    #: field ``[0, path_length] x [-max_offset, +max_offset]`` before
    #: solving; see ``docs/PLANNING.md``.
    planner: Optional[PlannerConfig] = None

    def __post_init__(self) -> None:
        if self.num_sensors < 0:
            raise ValueError(f"num_sensors must be >= 0, got {self.num_sensors}")
        check_positive(self.path_length, "path_length")
        check_nonnegative(self.max_offset, "max_offset")
        check_positive(self.sink_speed, "sink_speed")
        check_positive(self.slot_duration, "slot_duration")
        check_positive(self.battery_capacity, "battery_capacity")
        check_positive(self.panel_area_mm2, "panel_area_mm2")
        if self.weather not in ("sunny", "cloudy", "none"):
            raise ValueError(f"weather must be sunny|cloudy|none, got {self.weather!r}")
        lo, hi = self.accumulation_hours
        if not 0 <= lo <= hi:
            raise ValueError(f"accumulation_hours must satisfy 0 <= lo <= hi, got {lo, hi}")
        if self.fixed_power is not None:
            check_positive(self.fixed_power, "fixed_power")
        if self.gamma_override is not None and self.gamma_override < 1:
            raise ValueError(f"gamma_override must be >= 1, got {self.gamma_override}")
        if self.planner is not None and not isinstance(self.planner, PlannerConfig):
            if not isinstance(self.planner, Mapping):
                raise ValueError(
                    f"planner must be a PlannerConfig, mapping or null, got {self.planner!r}"
                )
            object.__setattr__(self, "planner", PlannerConfig.from_dict(self.planner))

    # ------------------------------------------------------------------
    def rate_table(self) -> RateTable:
        """The radio model this config implies."""
        if self.fixed_power is None:
            return CC2420_LIKE_TABLE
        return CC2420_LIKE_TABLE.with_fixed_power(self.fixed_power)

    def with_(self, **changes) -> "ScenarioConfig":
        """Functional update (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready dict of every field (``accumulation_hours`` becomes
        a 2-element list; everything else is already a JSON scalar).

        The ``planner`` key is *omitted* when no planner is configured so
        planner-less configs keep their historical wire shape and
        content-addressed cache keys.
        """
        doc = asdict(self)
        doc["accumulation_hours"] = [float(v) for v in self.accumulation_hours]
        if self.planner is None:
            del doc["planner"]
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ScenarioConfig":
        """Inverse of :meth:`to_dict`, with field validation.

        Rejects unknown fields with a typed
        :class:`~repro.utils.validation.UnknownFieldError` naming each
        offending key (sorted, so error messages are deterministic) and
        type-checks each value before handing off to ``__post_init__``'s
        range checks, so callers (e.g. the service request schema) can
        surface precise 400-style errors.
        """
        if not isinstance(doc, Mapping):
            raise ValueError(
                f"ScenarioConfig document must be a mapping, got {type(doc).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise UnknownFieldError("ScenarioConfig", unknown, known)
        kwargs = {}
        for name, value in doc.items():
            if name == "planner":
                if value is None:
                    kwargs[name] = None
                else:
                    kwargs[name] = PlannerConfig.from_dict(value)
            elif name in ("num_sensors", "gamma_override"):
                if value is None and name == "gamma_override":
                    kwargs[name] = None
                    continue
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                kwargs[name] = value
            elif name == "weather":
                if not isinstance(value, str):
                    raise ValueError(f"weather must be a string, got {value!r}")
                kwargs[name] = value
            elif name == "accumulation_hours":
                if (
                    not isinstance(value, (list, tuple))
                    or len(value) != 2
                    or any(
                        isinstance(v, bool) or not isinstance(v, (int, float))
                        for v in value
                    )
                ):
                    raise ValueError(
                        f"accumulation_hours must be a [lo, hi] number pair, got {value!r}"
                    )
                kwargs[name] = (float(value[0]), float(value[1]))
            elif name == "fixed_power":
                if value is None:
                    kwargs[name] = None
                elif isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"fixed_power must be a number or null, got {value!r}")
                else:
                    kwargs[name] = float(value)
            else:  # the plain float knobs
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"{name} must be a number, got {value!r}")
                kwargs[name] = float(value)
        return cls(**kwargs)

    def build(self, seed: Optional[int] = None) -> "Scenario":
        """Instantiate one random topology under this config (timed as
        the ``scenario.build`` phase)."""
        with phase("scenario.build", n=self.num_sensors, seed=seed):
            return Scenario(self, seed)


#: The configuration used throughout the paper's evaluation.
PAPER_DEFAULTS = ScenarioConfig()


class Scenario:
    """One concrete random topology: network + trajectory + radio.

    Parameters
    ----------
    config:
        The declarative setting.
    seed:
        Root seed; deployment, initial energies and any stochastic
        harvesting derive independent child streams from it.
    """

    def __init__(self, config: ScenarioConfig, seed: Optional[int] = None):
        self.config = config
        self.seed = seed
        stream = RngStream.from_seed(seed)
        self.rate_table = config.rate_table()

        deployment_rng = stream.child("deployment").generator
        if config.planner is not None and config.planner.deployment == "clustered":
            positions = clustered_deployment(
                config.num_sensors,
                config.path_length,
                config.max_offset,
                num_clusters=config.planner.num_clusters,
                cluster_std=config.planner.cluster_std,
                seed=deployment_rng,
            )
        else:
            positions = uniform_deployment(
                config.num_sensors,
                config.path_length,
                config.max_offset,
                deployment_rng,
            )
        if config.planner is None:
            self.plan = None
            path = PiecewiseLinearPath([(0.0, 0.0), (config.path_length, 0.0)])
        else:
            self.plan = plan_scenario(
                config.planner,
                positions,
                config.path_length,
                config.max_offset,
                self.rate_table.max_range,
            )
            path = self.plan.path

        # Every node carries the same panel under the same sky, so the
        # network holds one harvester: a harvest window is integrated once
        # for the whole network (SensorNetwork.harvest).
        harvester = None
        if config.weather == "sunny":
            harvester = SolarHarvester(sunny_profile(), config.panel_area_mm2)
        elif config.weather == "cloudy":
            harvester = SolarHarvester(cloudy_profile(seed=0), config.panel_area_mm2)

        # Initial charge: harvest accumulated over U(lo, hi) daylight
        # hours ending at solar noon (the brightest stretch, a mild
        # upper-bias that keeps budgets meaningful).
        energy_rng = stream.child("energy").generator
        lo, hi = config.accumulation_hours
        hours = energy_rng.uniform(lo, hi, size=config.num_sensors)
        if harvester is not None:
            noon = 12.0 * 3600.0
            charges = harvester.energy(noon - hours * 3600.0, noon)
        else:
            # Without harvesting, interpret "hours" against the sunny
            # profile's average power so the two regimes are comparable.
            ref = SolarHarvester(sunny_profile(), config.panel_area_mm2)
            mean_power = ref.energy(0.0, 48 * 3600.0) / (48 * 3600.0)
            charges = hours * 3600.0 * mean_power
        charges = np.minimum(charges, config.battery_capacity)

        self.network = SensorNetwork(
            positions,
            battery_capacity=config.battery_capacity,
            initial_charges=charges,
            harvester=harvester,
        )
        self.trajectory = SinkTrajectory(
            path, config.sink_speed, config.slot_duration
        )

    # ------------------------------------------------------------------
    @property
    def gamma(self) -> int:
        """Probe-interval length ``Γ`` — the paper's ``⌊R/(r_s·τ)⌋`` or
        the config's explicit override."""
        if self.config.gamma_override is not None:
            return self.config.gamma_override
        return self.trajectory.gamma(self.rate_table.max_range)

    def instance(self) -> DataCollectionInstance:
        """The DCMP instance for the *current* battery state.

        Each sensor's budget is its stored charge, the paper's
        ``P(v) = P_j(v)`` (Section II.B).
        """
        return DataCollectionInstance.from_network(
            self.network, self.trajectory, self.rate_table, self.network.charges()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return (
            f"Scenario(n={c.num_sensors}, r_s={c.sink_speed} m/s, tau={c.slot_duration} s, "
            f"weather={c.weather}, seed={self.seed})"
        )
