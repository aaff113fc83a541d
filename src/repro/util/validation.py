"""Argument-validation helpers with consistent error messages."""

from __future__ import annotations

import math


def check_finite(name: str, value: float) -> float:
    """Return ``value`` if finite, else raise ``ValueError``."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Return ``value`` if positive (``> 0``, or ``>= 0`` when strict=False)."""
    check_finite(name, value)
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Return ``value`` if ``lo <= value <= hi``, else raise ``ValueError``."""
    check_finite(name, value)
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return float(value)
