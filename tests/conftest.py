"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.trace import get_tracer
from repro.util.rng import default_rng


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return default_rng(12345)


@pytest.fixture
def tracer():
    """The singleton tracer, enabled and empty; disabled again afterwards.

    The tracer is process-wide state, so tests must not leak an enabled
    tracer (or stale spans) into the rest of the suite.
    """
    t = get_tracer()
    t.reset()
    t.enable()
    try:
        yield t
    finally:
        t.disable()
        t.reset()
