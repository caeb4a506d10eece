"""Equivalence suite: one flat pair table vs. the per-object forms it replaced.

A :class:`~repro.core.instance.DataCollectionInstance` stores its window
bounds, flat (sensor, slot) pairs and budgets only; ``restrict`` gathers
a probe interval's pairs from its parent's arrays; and the reference
reduction :func:`~tests.oracles.dcmp_to_gap` hands those arrays to
:class:`~tests.oracles.GapInstance` as they are.
Each must equal, with exact ``==``, what the per-object forms in
:mod:`tests.oracles` build: one ``SlotInterval`` and one
``SensorSlotData`` per sensor (:func:`~tests.oracles.instance_reference`),
the per-sensor restriction loop
(:func:`~tests.oracles.restrict_reference`) and one ``GapBin`` per
sensor with an item-by-item occupancy index
(:func:`~tests.oracles.gap_reference`).  The fuzzer's four metamorphic
relations and the shrinker's four passes are array transforms; on 3,000
random instances each output and each shrink candidate equals, in
order, what the references that edit one record per sensor build.

The guard at the end holds the solve paths to the flat form: building
an instance and running ``Offline_Appro``, ``Online_Appro``,
``Online_MaxMatch`` and a certified tour on it constructs none of the
per-sensor records ``instance.sensors`` reports.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instance import DataCollectionInstance, _SensorReading
from repro.network.network import SensorNetwork
from repro.network.path import SinkTrajectory
from repro.network.radio import CC2420_LIKE_TABLE
from repro.planning import PlannerConfig
from repro.sim import ScenarioConfig, run_tour
from repro.sim.algorithms import get_algorithm
from repro.utils.intervals import SlotInterval
from repro.verify import shrink
from repro.verify.fuzz import relabel_sensors, reverse_slots, scale_energy, scale_profits
from tests.conftest import random_instance, straight_road
from tests.oracles import (
    SHRINK_PASS_REFERENCES,
    dcmp_to_gap,
    gap_reference,
    instance_reference,
    relabel_sensors_reference,
    restrict_reference,
    reverse_slots_reference,
    scale_energy_reference,
    scale_profits_reference,
    sensor_records,
)
from tests.test_path_equivalence import assert_bit_identical

FIXED_POWER = 0.3


def _config(num_sensors, path_length, **changes):
    return ScenarioConfig(num_sensors=num_sensors, path_length=path_length, **changes)


def _planned(kind):
    # The bench's quick planner cells.
    return _config(30, 1500.0, max_offset=300.0, sink_speed=10.0, planner=PlannerConfig(kind=kind))


#: (id, config, seed) of every scenario shape compared here.
SHAPES = (
    [(f"quick-n{n}-s{seed}", _config(n, 1500.0), seed) for n in (30, 60) for seed in (7, 11)]
    + [(f"road-n{n}-s{seed}", _config(n, 10_000.0), seed) for n in (100, 300, 600) for seed in (1, 2)]
    + [
        ("fixed-quick-n60", _config(60, 1500.0, fixed_power=FIXED_POWER), 7),
        ("fixed-road-n100", _config(100, 10_000.0, fixed_power=FIXED_POWER), 1),
        ("cloudy-road-n100", _config(100, 10_000.0, weather="cloudy"), 1),
        ("plane-sweep-n30", _planned("plane_sweep"), 7),
        ("multi-sink-n30", _planned("multi_sink"), 7),
        ("empty-n0", _config(0, 1500.0), 1),
    ]
)
SHAPE_IDS = [shape_id for shape_id, _, _ in SHAPES]


def assert_same_instance(got: DataCollectionInstance, want) -> None:
    """Every stored array and structure query of ``got`` equals ``want``'s."""
    assert (got.num_slots, got.slot_duration) == (want.num_slots, want.slot_duration)
    assert got.num_sensors == want.num_sensors
    for g, w in zip(got.window_bounds(), want.window_bounds()):
        assert_bit_identical(g, w)
    for name in got.flat_pairs()._fields:
        assert_bit_identical(getattr(got.flat_pairs(), name), getattr(want.flat_pairs(), name))
    assert_bit_identical(got.budgets_array(), want.budgets_array())
    assert got.sensor_order() == want.sensor_order()
    for j in range(got.num_slots):
        assert got.slot_competitors(j).tolist() == list(want.slot_competitors(j))


def assert_same_records(got, want) -> None:
    """Per-sensor records (``SensorSlotData``) equal field by field."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.window == w.window and g.budget == w.budget
        assert_bit_identical(g.rates, w.rates)
        assert_bit_identical(g.powers, w.powers)


def assert_same_gap(instance: DataCollectionInstance, reference_source) -> None:
    """``dcmp_to_gap(instance)``'s arrays and occupancy index equal the
    per-bin reference built from ``reference_source``'s records."""
    gap = dcmp_to_gap(instance)
    want = gap_reference(reference_source)
    assert gap.num_bins == len(want.bins) and gap.num_items == want.num_items
    assert_bit_identical(gap.offsets, want.offsets)
    assert_bit_identical(
        gap.items, np.concatenate([np.zeros(0, np.int64), *(b.items for b in want.bins)])
    )
    assert_bit_identical(gap.profits, np.concatenate([np.zeros(0), *(b.profits for b in want.bins)]))
    assert_bit_identical(gap.weights, np.concatenate([np.zeros(0), *(b.weights for b in want.bins)]))
    assert gap.capacities.tolist() == [b.capacity for b in want.bins]
    # The reduction sorts nothing itself: its occupancy order is the
    # instance's cached slot order, which ``_slot_grouped`` shares.
    assert gap._occ_flat is instance._slot_order()
    assert_bit_identical(gap._occ_flat, want.occ_flat)
    assert_bit_identical(gap._occ_bin, want.occ_bin)
    assert_bit_identical(gap._occ_bounds, want.occ_bounds)
    assert_bit_identical(gap._occ_counts, np.diff(want.occ_bounds))
    for item in range(want.num_items):
        lo, hi = want.occ_bounds[item], want.occ_bounds[item + 1]
        assert gap.bins_containing(item) == list(
            zip(want.occ_bin[lo:hi].tolist(), want.occ_pos[lo:hi].tolist())
        )


def _instance_and_reference(config, seed, anchor="midpoint"):
    scenario = config.build(seed=seed)
    trajectory = scenario.trajectory
    if anchor != trajectory.anchor:
        trajectory = SinkTrajectory(
            trajectory.path, trajectory.speed, trajectory.slot_duration, anchor=anchor
        )
    args = (scenario.network, trajectory, scenario.rate_table, scenario.network.charges())
    return scenario, DataCollectionInstance.from_network(*args), instance_reference(*args)


def _checked_restrict(instance: DataCollectionInstance, checked: list):
    """``instance.restrict`` that compares every call, and the GAP
    reduction of its sub-instance, with the per-object references."""
    restrict = instance.restrict

    def checking(interval, budgets=None, sensor_ids=None):
        # The residual budgets are debited after the call; compare now.
        want, want_parents = restrict_reference(instance, interval, budgets, sensor_ids)
        got, parents = restrict(interval, budgets=budgets, sensor_ids=sensor_ids)
        assert parents == want_parents
        assert_same_instance(got, want)
        assert_same_gap(got, want)
        checked.append(interval)
        return got, parents

    return checking


# ----------------------------------------------------------------------
# Instance build, GAP reduction and online restriction on scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config,seed", [shape[1:] for shape in SHAPES], ids=SHAPE_IDS)
def test_instance_and_gap_equal_per_object_reference(config, seed):
    _, instance, reference = _instance_and_reference(config, seed)
    assert_same_instance(instance, reference)
    assert_same_records(sensor_records(instance), reference.sensors)
    assert [instance.window_of(i) for i in range(instance.num_sensors)] == reference.windows
    assert_same_gap(instance, reference)


@pytest.mark.parametrize("config,seed", [shape[1:] for shape in SHAPES], ids=SHAPE_IDS)
def test_online_restrictions_equal_per_sensor_loop(config, seed):
    scenario, instance, _ = _instance_and_reference(config, seed)
    algorithms = ["Online_Appro"]
    if config.fixed_power is not None:
        algorithms.append("Online_MaxMatch")
    for name in algorithms:
        checked: list = []
        instance.restrict = _checked_restrict(instance, checked)
        run_tour(scenario, get_algorithm(name), mutate=False, instance=instance)
        del instance.restrict
        # Every interval with a registered sensor was compared.
        assert len(checked) == sum(
            1
            for start in range(0, instance.num_slots, scenario.gamma)
            if instance.slot_competitors(start).size
        )


@pytest.mark.parametrize("anchor", ["midpoint", "start", "end"])
@pytest.mark.parametrize(
    "config,seed", [(_config(60, 1500.0), 7), (_config(100, 10_000.0), 1)], ids=["quick", "road"]
)
def test_every_slot_anchor_equals_reference(config, seed, anchor):
    _, instance, reference = _instance_and_reference(config, seed, anchor)
    assert_same_instance(instance, reference)
    assert_same_gap(instance, reference)


def test_network_with_no_reachable_sensor():
    network = SensorNetwork(
        np.array([[100.0, 500.0], [700.0, -400.0], [-400.0, 0.0], [2000.0, 0.0]]),
        battery_capacity=10.0,
        initial_charges=5.0,
    )
    trajectory = SinkTrajectory(straight_road(1500.0), 5.0, 1.0)
    args = (network, trajectory, CC2420_LIKE_TABLE, network.charges())
    instance = DataCollectionInstance.from_network(*args)
    reference = instance_reference(*args)
    assert reference.windows == [None] * 4
    assert_same_instance(instance, reference)
    assert_same_gap(instance, reference)
    assert instance.flat_pairs().slot.size == 0
    sub, parents = instance.restrict(SlotInterval(0, 9))
    want, want_parents = restrict_reference(instance, SlotInterval(0, 9))
    assert parents == want_parents == []
    assert_same_instance(sub, want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_restrict_and_gap_equal_reference_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    instance = random_instance(
        rng,
        num_slots=int(rng.integers(1, 16)),
        num_sensors=int(rng.integers(0, 9)),
        max_window=int(rng.integers(1, 8)),
    )
    assert_same_gap(instance, instance)
    for _ in range(3):
        start = int(rng.integers(0, instance.num_slots))
        interval = SlotInterval(start, int(rng.integers(start, instance.num_slots)))
        ids = rng.permutation(instance.num_sensors)[: int(rng.integers(0, instance.num_sensors + 1))]
        budgets = rng.uniform(-1.0, 3.0, instance.num_sensors)
        for kwargs in ({}, {"sensor_ids": ids.tolist(), "budgets": budgets}):
            got, parents = instance.restrict(interval, **kwargs)
            want, want_parents = restrict_reference(instance, interval, **kwargs)
            assert parents == want_parents
            assert_same_instance(got, want)
            assert_same_records(sensor_records(got), sensor_records(want))
            assert_same_gap(got, want)


# ----------------------------------------------------------------------
# Fuzzer relations and shrink passes vs. per-record references
# ----------------------------------------------------------------------
def _bits(instance: DataCollectionInstance):
    arrays = (*instance.window_bounds(), *instance.flat_pairs(), instance.budgets_array())
    return (
        instance.num_slots,
        instance.slot_duration,
        [(array.dtype.str, array.shape, array.tobytes()) for array in arrays],
    )


def assert_same_arrays(got: DataCollectionInstance, want: DataCollectionInstance) -> None:
    """Horizon, window bounds, every flat pair array and the budgets
    equal bit for bit."""
    assert _bits(got) == _bits(want)


RELATIONS = (
    (reverse_slots, reverse_slots_reference),
    (relabel_sensors, relabel_sensors_reference),
    (lambda inst: scale_profits(inst, 3.0), lambda inst: scale_profits_reference(inst, 3.0)),
    (lambda inst: scale_energy(inst, 2.0), lambda inst: scale_energy_reference(inst, 2.0)),
)


def test_relations_and_shrink_passes_equal_per_record_references():
    rng = np.random.default_rng(31)
    outputs = empty_networks = unreachable = 0
    for draw in range(3000):
        num_slots = int(rng.integers(1, 14))
        instance = random_instance(
            rng,
            num_slots=num_slots,
            num_sensors=int(rng.integers(0, 7)),
            max_window=int(rng.integers(1, num_slots + 1)),
            fixed_power=0.3 if draw % 3 == 0 else None,
        )
        starts, ends = instance.window_bounds()
        empty_networks += instance.num_sensors == 0
        unreachable += int(np.count_nonzero(starts > ends))
        permutation = rng.permutation(instance.num_sensors).tolist()
        pairs = [(transform(instance), reference(instance)) for transform, reference in RELATIONS]
        pairs.append(
            (
                relabel_sensors(instance, permutation),
                relabel_sensors_reference(instance, permutation),
            )
        )
        for candidates, references in zip(shrink._PASSES, SHRINK_PASS_REFERENCES):
            got, want = list(candidates(instance)), list(references(instance))
            assert len(got) == len(want)
            pairs.extend(zip(got, want))
        for got, want in pairs:
            assert_same_arrays(got, want)
        outputs += len(pairs)
    assert empty_networks > 0 and unreachable > 0 and outputs > 30_000


# ----------------------------------------------------------------------
# Guard: the solve paths build no per-sensor object
# ----------------------------------------------------------------------
def _count_constructions(monkeypatch, classes):
    """Swap each class for a subclass that counts its finalised
    instances, in every loaded ``repro`` module that names it.

    A subclass instance exists however it was made, through the class
    or through ``object.__new__``, and each one is finalised once.  So
    after a full collection the counter holds every instance that was
    freed, and :func:`gc.get_objects` finds those still alive.
    """
    counts: Counter = Counter()
    swapped = {}
    for cls in classes:

        def finalise(self, name=cls.__name__):
            counts[name] += 1

        swapped[cls] = type(cls.__name__, (cls,), {"__del__": finalise})
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for cls, counting in swapped.items():
                if getattr(module, cls.__name__, None) is cls:
                    monkeypatch.setattr(module, cls.__name__, counting)

    def constructed() -> Counter:
        gc.collect()
        alive = Counter(
            type(obj).__name__ for obj in gc.get_objects() if type(obj) in swapped.values()
        )
        return counts + alive

    return constructed


def _solve_everything(seed: int) -> None:
    scenario = _config(100, 10_000.0).build(seed=seed)
    instance = scenario.instance()
    for name in ("Offline_Appro", "Online_Appro"):
        run_tour(scenario, get_algorithm(name), mutate=False, instance=instance)
    result = run_tour(
        scenario, get_algorithm("Offline_Appro"), mutate=False, instance=instance, certify=True
    )
    assert result.certificate.passed
    fixed = _config(100, 10_000.0, fixed_power=FIXED_POWER).build(seed=seed)
    run_tour(fixed, get_algorithm("Online_MaxMatch"), mutate=False, instance=fixed.instance())


def test_solve_paths_construct_no_per_sensor_object(monkeypatch):
    constructed = _count_constructions(monkeypatch, (_SensorReading,))
    # The counter sees the per-sensor records once they are read.
    probe = _config(5, 1500.0).build(seed=1).instance()
    assert [s.num_slots for s in probe.sensors] == np.diff(probe.flat_pairs().offsets).tolist()
    del probe
    assert constructed() == Counter({"_SensorReading": 5})

    _solve_everything(seed=1)
    assert constructed() == Counter({"_SensorReading": 5})
