"""Circuit breaker: the three-state machine on a fake clock."""

from __future__ import annotations

import pytest

from repro.service import CircuitBreaker
from repro.service.breaker import (
    CLOSED,
    FAILURE_THRESHOLD,
    HALF_OPEN,
    OPEN,
    RESET_TIMEOUT,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def make(clock) -> CircuitBreaker:
    return CircuitBreaker(clock=clock)


def trip(br: CircuitBreaker, key: str = "fam") -> None:
    """Exactly enough consecutive failures to open ``key``."""
    for _ in range(FAILURE_THRESHOLD):
        br.record_failure(key)


def test_consecutive_failures_open_the_breaker(clock):
    br = make(clock)
    for _ in range(FAILURE_THRESHOLD - 1):
        assert br.allow("fam")
        br.record_failure("fam")
    assert br.allow("fam")  # one failure short: still closed
    br.record_failure("fam")
    assert br.state("fam") == OPEN
    assert not br.allow("fam")


def test_success_resets_the_failure_streak(clock):
    br = make(clock)
    for _ in range(FAILURE_THRESHOLD - 1):
        br.record_failure("fam")
    br.record_success("fam")
    br.record_failure("fam")
    assert br.state("fam") == CLOSED


def test_half_open_probe_success_closes(clock):
    br = make(clock)
    trip(br)
    clock.advance(RESET_TIMEOUT)
    assert br.state("fam") == HALF_OPEN
    assert br.allow("fam")  # the probe
    assert not br.allow("fam")  # one probe at a time
    br.record_success("fam")
    assert br.state("fam") == CLOSED
    assert br.allow("fam")


def test_half_open_probe_failure_reopens_with_fresh_timeout(clock):
    br = make(clock)
    trip(br)
    clock.advance(RESET_TIMEOUT)
    assert br.allow("fam")
    br.record_failure("fam")
    assert br.state("fam") == OPEN
    clock.advance(RESET_TIMEOUT - 1.0)  # 1 s short of the *new* window's end
    assert not br.allow("fam")
    clock.advance(1.0)
    assert br.allow("fam")


def test_open_blocks_until_reset_timeout(clock):
    br = make(clock)
    trip(br)
    clock.advance(RESET_TIMEOUT - 0.01)
    assert not br.allow("fam")
    assert br.state("fam") == OPEN


def test_families_are_isolated(clock):
    br = make(clock)
    trip(br, "a")
    assert not br.allow("a")
    assert br.allow("b")
    assert br.state("b") == CLOSED


def test_snapshot_reports_state_and_opens(clock):
    br = make(clock)
    trip(br)
    snap = br.snapshot()
    assert snap["fam"]["state"] == OPEN
    assert snap["fam"]["opens"] == 1
