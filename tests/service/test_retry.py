"""Retry policy: deterministic capped exponential backoff with jitter."""

from __future__ import annotations

import pytest

from repro.service import RetryPolicy


def test_backoff_is_deterministic_per_key_and_attempt():
    policy = RetryPolicy(base_delay=0.1, max_delay=2.0, jitter=0.5)
    assert policy.backoff("abc", 1) == policy.backoff("abc", 1)
    # Different keys and different attempts draw different jitter.
    assert policy.backoff("abc", 1) != policy.backoff("abd", 1)
    assert policy.backoff("abc", 1) != policy.backoff("abc", 2)


def test_backoff_doubles_without_jitter():
    policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.0)
    assert policy.backoff("k", 1) == pytest.approx(0.1)
    assert policy.backoff("k", 2) == pytest.approx(0.2)
    assert policy.backoff("k", 3) == pytest.approx(0.4)


def test_max_delay_is_a_hard_cap():
    policy = RetryPolicy(base_delay=0.5, max_delay=1.0, jitter=0.0)
    assert policy.backoff("k", 10) == pytest.approx(1.0)
    # Jitter only ever *shortens* the wait, so the cap survives it.
    jittered = RetryPolicy(base_delay=0.5, max_delay=1.0, jitter=1.0)
    for attempt in range(1, 12):
        assert 0.0 <= jittered.backoff("k", attempt) <= 1.0


def test_jitter_shrinks_by_at_most_the_jitter_fraction():
    policy = RetryPolicy(base_delay=0.4, max_delay=10.0, jitter=0.25)
    for attempt in (1, 2, 3):
        base = 0.4 * 2 ** (attempt - 1)
        got = policy.backoff("key", attempt)
        assert base * 0.75 <= got <= base


def test_attempt_zero_waits_nothing():
    assert RetryPolicy().backoff("k", 0) == 0.0


def test_retries_property():
    assert RetryPolicy(max_attempts=3).retries == 2
    assert RetryPolicy(max_attempts=1).retries == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_attempts": 0},
        {"base_delay": -0.1},
        {"base_delay": 2.0, "max_delay": 1.0},
        {"jitter": 1.5},
        {"jitter": -0.1},
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)
