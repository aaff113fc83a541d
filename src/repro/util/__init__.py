"""Shared utilities: seeded RNG helpers, ASCII tables, timers, validation,
and (:mod:`repro.util.scipy_ext`) scipy's compiled routines loaded alone."""

from repro.util.rng import default_rng, spawn_rng
from repro.util.tables import format_table
from repro.util.timing import Timer
from repro.util.validation import (
    check_finite,
    check_positive,
    check_in_range,
)

__all__ = [
    "default_rng",
    "spawn_rng",
    "format_table",
    "Timer",
    "check_finite",
    "check_positive",
    "check_in_range",
]
