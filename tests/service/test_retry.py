"""Retry policy: how many attempts a request gets."""

from __future__ import annotations

import pytest

from repro.service import RetryPolicy


def test_retries_property():
    assert RetryPolicy(max_attempts=3).retries == 2
    assert RetryPolicy(max_attempts=1).retries == 0


@pytest.mark.parametrize("kwargs", [{"max_attempts": 0}, {"max_attempts": -1}])
def test_validation(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)
