"""Slot-interval arithmetic, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.intervals import SlotInterval


def test_length():
    assert len(SlotInterval(3, 7)) == 5


def test_singleton_length():
    assert len(SlotInterval(4, 4)) == 1


def test_invalid_interval_raises():
    with pytest.raises(ValueError):
        SlotInterval(5, 4)


def test_contains():
    iv = SlotInterval(2, 5)
    assert 2 in iv and 5 in iv and 3 in iv
    assert 1 not in iv and 6 not in iv


def test_iter_and_slots_agree():
    iv = SlotInterval(3, 6)
    assert list(iv) == [3, 4, 5, 6]
    np.testing.assert_array_equal(iv.slots(), [3, 4, 5, 6])


def test_intersection_overlap():
    assert SlotInterval(0, 5).intersection(SlotInterval(3, 9)) == SlotInterval(3, 5)


def test_intersection_disjoint_is_none():
    assert SlotInterval(0, 2).intersection(SlotInterval(3, 5)) is None


def test_intersection_touching():
    assert SlotInterval(0, 3).intersection(SlotInterval(3, 5)) == SlotInterval(3, 3)


def test_shift():
    assert SlotInterval(2, 4).shift(-2) == SlotInterval(0, 2)


interval_st = st.tuples(
    st.integers(0, 50), st.integers(0, 50)
).map(lambda t: SlotInterval(min(t), max(t)))


@given(interval_st, interval_st)
def test_intersection_commutative(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(interval_st, interval_st)
def test_intersection_subset(a, b):
    inter = a.intersection(b)
    if inter is not None:
        assert set(inter) == set(a) & set(b)
    else:
        assert not (set(a) & set(b))


@given(interval_st, st.integers(-10, 10))
def test_shift_preserves_length(iv, off):
    if iv.start + off >= 0:
        assert len(iv.shift(off)) == len(iv)
