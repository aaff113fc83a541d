"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.obs.trace import get_tracer
from repro.util.rng import default_rng

# Tier-1 is a gate, so its property tests draw the same examples on every
# run (and ignore the local ``.hypothesis/`` example database).  Exploration
# is a separate, non-gating run: ``--hypothesis-profile=randomized`` (``make
# test-random``, the CI step of the same name); whatever it finds gets pinned
# as an ordinary regression test.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("randomized", print_blob=True)
settings.load_profile("tier1")


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
