"""Shared fixtures and instance builders for the test suite.

Instance generation lives in :mod:`repro.verify.gen` (one generator
shared by the Hypothesis suite and the differential fuzzer); the
``make_instance`` / ``random_instance`` names here are thin aliases
kept for backwards compatibility.

Hypothesis example budgets are profile-driven: ``HYPOTHESIS_PROFILE=ci``
(the CI default) runs 100 examples per property, the default ``dev``
profile runs 25 for fast local iteration.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.network.geometry import PiecewiseLinearPath
from repro.sim.scenario import ScenarioConfig
from repro.verify.gen import make_instance, random_instance

__all__ = ["make_instance", "random_instance", "straight_road"]


def straight_road(length: float) -> PiecewiseLinearPath:
    """The paper's straight road: the two-waypoint path ``(0, 0) → (length, 0)``."""
    return PiecewiseLinearPath([(0.0, 0.0), (length, 0.0)])

settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile("ci", max_examples=100, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_scenario():
    """A shared small multi-rate scenario (cached per session)."""
    return ScenarioConfig(num_sensors=60, path_length=3000.0).build(seed=77)


@pytest.fixture(scope="session")
def small_fixed_scenario():
    """A shared small fixed-power scenario (cached per session)."""
    return ScenarioConfig(
        num_sensors=60, path_length=3000.0, fixed_power=0.3
    ).build(seed=78)
