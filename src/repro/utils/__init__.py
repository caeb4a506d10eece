"""Shared utilities: seeded randomness, validation, interval arithmetic."""

from repro.utils.rng import RngStream, as_generator, spawn_generators
from repro.utils.intervals import SlotInterval
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_nonnegative,
    check_positive,
)

__all__ = [
    "RngStream",
    "as_generator",
    "spawn_generators",
    "SlotInterval",
    "check_finite",
    "check_in_range",
    "check_nonnegative",
    "check_positive",
]
