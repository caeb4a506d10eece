"""``Offline_Appro``'s residual band against the GAP path it replaced.

:func:`repro.core.offline_appro.offline_appro` runs the local-ratio pass
on the instance's flat pairs through one ``(n, P)`` band, ``P = min(T,
2·L)``.  :func:`tests.oracles.offline_appro_reference` is the GAP path:
the memoised reduction, the occupancy-index rounds of
:func:`~tests.oracles.local_ratio_gap` with one ``solve_knapsack`` call
per bin, the backward pass and ``from_sensor_slots``.  Both must give
the same slot owners and the same five counters, bit for bit, for every
knapsack method, on fuzz-shaped instances and on whole tours; so must
every ``Online_Appro`` interval of the Figure 2 shapes, and the whole
tour must equal the reference framework's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.instance import DataCollectionInstance
from repro.core.offline_appro import offline_appro
from repro.experiments.fig2 import build_points
from repro.obs import MetricsRegistry, use_registry
from repro.online.framework import run_online
from repro.planning import PlannerConfig
from repro.sim import ScenarioConfig
from repro.verify.gen import random_instance
from tests.oracles import (
    GapIntervalReference,
    offline_appro_reference,
    run_online_reference,
)
from tests.test_array_equivalence import assert_same_online_result

METHODS = ("few_weights", "greedy", "fptas")


def fuzz_shape(seed: int) -> DataCollectionInstance:
    """A fuzz-shaped instance: n 0–8, T 1–12, τ 1 or 0.7, windows up to
    T long, about one sensor in ten unreachable and, in half the draws,
    about a quarter of the in-window slots at rate 0."""
    rng = np.random.default_rng(seed)
    num_slots = int(rng.integers(1, 13))
    base = random_instance(
        rng,
        num_slots=num_slots,
        num_sensors=int(rng.integers(0, 9)),
        max_window=int(rng.integers(1, num_slots + 1)),
    )
    flat = base.flat_pairs()
    rates = flat.rates.copy()
    if rng.random() < 0.5:
        rates[rng.random(rates.size) < 0.25] = 0.0
    starts, ends = base.window_bounds()
    return DataCollectionInstance(
        num_slots,
        float(rng.choice([1.0, 0.7])),
        starts,
        ends,
        rates,
        flat.powers,
        base.budgets_array(),
    )


def counters(registry: MetricsRegistry) -> list:
    """The registry's counters, in the order they were first recorded."""
    return list(registry.dump()["counters"].items())


def assert_band_equals_reference(instance, method: str) -> None:
    band, reference = MetricsRegistry(), MetricsRegistry()
    with use_registry(band):
        got = offline_appro(instance, knapsack_method=method)
    with use_registry(reference):
        want = offline_appro_reference(instance, knapsack_method=method)
    np.testing.assert_array_equal(got.slot_owner, want.slot_owner)
    assert counters(band) == counters(reference)


def band_cases(instance) -> set:
    """Which of the band's edge cases ``instance`` exercises."""
    starts, ends = instance.window_bounds()
    reachable = starts <= ends
    sizes = ends - starts + 1
    cases = set()
    if instance.num_sensors == 0:
        cases.add("empty")
    if not reachable.all():
        cases.add("unreachable")
    if np.any(instance.flat_pairs().rates == 0.0):
        cases.add("rate-0")
    if reachable.any():
        period = min(instance.num_slots, 2 * int(sizes[reachable].max()))
        if period == instance.num_slots:
            cases.add("P=T")
        if np.any(reachable & (starts % period + sizes > period)):
            cases.add("wraps")
    return cases


@pytest.mark.parametrize("method", METHODS)
@given(st.integers(0, 100_000))
def test_band_equals_gap_path(method, seed):
    assert_band_equals_reference(fuzz_shape(seed), method)


@pytest.mark.parametrize("method", METHODS)
def test_fuzz_shapes_cover_every_band_case(method):
    seen = set()
    for seed in range(400):
        instance = fuzz_shape(seed)
        seen |= band_cases(instance)
        assert_band_equals_reference(instance, method)
    assert seen == {"empty", "unreachable", "rate-0", "P=T", "wraps"}


def _planned(num_sensors, kind):
    return ScenarioConfig(
        num_sensors=num_sensors,
        path_length=1500.0,
        max_offset=300.0,
        sink_speed=10.0,
        planner=PlannerConfig(kind=kind),
    )


TOURS = [
    (f"road-n{n}-s{seed}", ScenarioConfig(num_sensors=n), seed)
    for n in (100, 300, 600)
    for seed in (1, 2)
] + [
    (f"{kind}-n{n}", _planned(n, kind), 7)
    for kind in ("plane_sweep", "multi_sink")
    for n in (100, 300)
]


@pytest.mark.parametrize("config,seed", [t[1:] for t in TOURS], ids=[t[0] for t in TOURS])
def test_band_equals_gap_path_on_tours(config, seed):
    instance = config.build(seed=seed).instance()
    for method in ("few_weights", "greedy"):
        assert_band_equals_reference(instance, method)


class _CheckedIntervals:
    """Runs each probe interval through the band and the GAP path and
    requires both to agree before the framework goes on."""

    def __init__(self):
        self.intervals = 0

    def schedule(self, sub_instance):
        assert_band_equals_reference(sub_instance, "few_weights")
        self.intervals += 1
        return offline_appro(sub_instance)


FIG2_POINTS = build_points(sizes=(100, 300, 600))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "point",
    FIG2_POINTS,
    ids=[f"{dict(p.label)['panel']}-n{dict(p.label)['n']}".replace(" ", "") for p in FIG2_POINTS],
)
def test_online_appro_intervals_equal_reference_framework(point, seed):
    scenario = point.config.build(seed=seed)
    instance = scenario.instance()
    checked = _CheckedIntervals()
    got = run_online(instance, scenario.gamma, checked)
    want = run_online_reference(instance, scenario.gamma, GapIntervalReference())
    assert checked.intervals == sum(1 for rec in want.intervals if rec.registered)
    assert_same_online_result(got, want)
    assert got.messages.summary() == want.messages.summary()


def test_counters_once_per_pass_and_no_per_row_timer():
    instance = fuzz_shape(4)  # n = 8
    registry = MetricsRegistry()
    with use_registry(registry):
        offline_appro(instance)
    dump = registry.dump()
    n = instance.num_sensors
    assert dump["counters"]["knapsack.calls"] == n
    assert dump["counters"]["gap.local_ratio_rounds"] == n
    assert dump["counters"]["knapsack.items"] == instance.flat_pairs().slot.size
    assert "knapsack.solve" not in dump["timers"]
    assert set(dump["timers"]) == {
        "offline_appro", "offline_appro.reduce", "offline_appro.local_ratio"
    }


def test_unknown_method_rejected_before_any_work():
    empty = DataCollectionInstance(3, 1.0, [], [], [], [], [])
    with pytest.raises(ValueError, match="unknown knapsack method"):
        offline_appro(empty, knapsack_method="dp")
