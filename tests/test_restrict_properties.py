"""Hypothesis invariants for instance restriction (the online sub-problem).

``DataCollectionInstance.restrict`` is the seam between the offline
truth and what the online framework schedules; these properties pin its
semantics against arbitrary instances and intervals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.intervals import SlotInterval
from tests.conftest import random_instance

SEEDS = st.integers(0, 100_000)


def draw_interval(data, num_slots):
    a = data.draw(st.integers(0, num_slots - 1))
    b = data.draw(st.integers(a, num_slots - 1))
    return SlotInterval(a, b)


@given(SEEDS, st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_preserves_per_slot_data(seed, data):
    """Every (sub-sensor, sub-slot) pair mirrors its parent exactly."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=14, num_sensors=5)
    interval = draw_interval(data, inst.num_slots)
    sub, parents = inst.restrict(interval)
    for k, parent in enumerate(parents):
        window = sub.window_of(k)
        assert window is not None
        for local_slot in window:
            global_slot = local_slot + interval.start
            assert sub.profit(k, local_slot) == pytest.approx(
                inst.profit(parent, global_slot)
            )
            assert sub.cost(k, local_slot) == pytest.approx(
                inst.cost(parent, global_slot)
            )


@given(SEEDS, st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_keeps_exactly_overlapping_sensors(seed, data):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=14, num_sensors=5)
    interval = draw_interval(data, inst.num_slots)
    _, parents = inst.restrict(interval)
    expected = [
        i
        for i in range(inst.num_sensors)
        if inst.window_of(i) is not None
        and inst.window_of(i).start <= interval.end
        and interval.start <= inst.window_of(i).end
    ]
    assert parents == expected


@given(SEEDS, st.data())
@settings(max_examples=30, deadline=None)
def test_restrict_windows_inside_interval(seed, data):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=14, num_sensors=5)
    interval = draw_interval(data, inst.num_slots)
    sub, _ = inst.restrict(interval)
    assert sub.num_slots == len(interval)
    for k in range(sub.num_sensors):
        window = sub.window_of(k)
        assert 0 <= window.start <= window.end < sub.num_slots


@given(SEEDS)
@settings(max_examples=30, deadline=None)
def test_partition_into_intervals_covers_all_pairs(seed):
    """Restricting to a partition of the horizon reproduces every
    (sensor, slot) pair exactly once."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, num_slots=12, num_sensors=4)
    gamma = int(rng.integers(1, 6))
    seen = set()
    for start in range(0, inst.num_slots, gamma):
        interval = SlotInterval(start, min(start + gamma, inst.num_slots) - 1)
        sub, parents = inst.restrict(interval)
        for k, parent in enumerate(parents):
            for local_slot in sub.window_of(k):
                pair = (parent, local_slot + interval.start)
                assert pair not in seen
                seen.add(pair)
    expected = {
        (i, j)
        for i in range(inst.num_sensors)
        if inst.window_of(i) is not None
        for j in inst.window_of(i)
    }
    assert seen == expected
