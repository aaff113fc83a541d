"""The degradation ladder: exact -> stale -> greedy -> typed rejection."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.minlp.solution import Status
from repro.perf.model import PerformanceModel
from repro.service import (
    AllocationService,
    ComponentSpec,
    ResiliencePolicy,
    RetryPolicy,
    ServiceRejectedError,
    SolveRequest,
    WorkerCrashError,
    greedy_outcome,
)
from repro.service.breaker import FAILURE_THRESHOLD, OPEN, RESET_TIMEOUT
from repro.service.solver import solve_request, validate_outcome
from tests.service.conftest import make_request


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_service(clock=None, *, ttl=None, **policy_kwargs) -> AllocationService:
    policy_kwargs.setdefault("retry", RetryPolicy(max_attempts=2))
    return AllocationService(
        ttl=ttl,
        clock=clock or FakeClock(),
        resilience=ResiliencePolicy(**policy_kwargs),
    )


def break_solver(service: AllocationService) -> list:
    """Make every exact solve die as a crash; returns the call log."""
    calls = []

    def _dead(request, *, attempt=0):
        calls.append(attempt)
        raise WorkerCrashError(fingerprint=request.fingerprint())

    service._solve = _dead
    return calls


def test_retry_recovers_from_a_transient_crash():
    service = make_service()
    real = service._solve
    state = {"calls": 0}

    def _flaky(request, *, attempt=0):
        state["calls"] += 1
        if state["calls"] == 1:
            raise WorkerCrashError()
        return real(request, attempt=attempt)

    service._solve = _flaky
    response = service.submit(make_request(48))
    assert response.ok and response.source == "exact"
    assert state["calls"] == 2
    assert service.metrics.retries == 1
    assert service.metrics.worker_crashes == 1


def test_stale_rung_serves_expired_entries_marked():
    clock = FakeClock()
    service = make_service(clock, ttl=10.0)
    exact = service.submit(make_request(64))
    assert exact.source == "exact"
    clock.advance(25.0)  # entry is now 25s old, 15s past its TTL
    break_solver(service)
    response = service.submit(make_request(64))
    assert response.ok
    assert response.source == "stale"
    assert response.cached
    assert response.staleness == pytest.approx(25.0)
    assert response.allocation == exact.allocation
    assert response.degraded
    assert service.metrics.degraded_stale == 1


def test_max_stale_bounds_the_stale_rung():
    clock = FakeClock()
    service = make_service(clock, ttl=10.0, max_stale=20.0)
    service.submit(make_request(64))
    clock.advance(25.0)  # older than max_stale: the rung must pass
    break_solver(service)
    response = service.submit(make_request(64))
    assert response.source == "greedy"


def test_greedy_rung_answers_when_nothing_is_cached():
    service = make_service()
    break_solver(service)
    request = make_request(64)
    response = service.submit(request)
    assert response.ok
    assert response.source == "greedy"
    assert response.status == Status.FEASIBLE.value
    assert sum(response.allocation.values()) <= 64
    assert all(n >= 1 for n in response.allocation.values())
    assert service.metrics.degraded_greedy == 1
    # Greedy answers must never shadow an exact answer in the cache.
    assert request.fingerprint() not in service.cache


def test_ladder_bottom_is_a_typed_rejection():
    service = make_service(allow_stale=False, allow_greedy=False)
    calls = break_solver(service)
    with pytest.raises(ServiceRejectedError) as err:
        service.submit(make_request(64))
    assert err.value.fingerprint == make_request(64).fingerprint()
    assert len(calls) == 2  # both attempts ran before rejecting
    assert service.metrics.rejections == 1


def test_without_a_policy_crashes_propagate():
    service = AllocationService()
    break_solver(service)
    with pytest.raises(WorkerCrashError):
        service.submit(make_request(64))


def test_an_infeasible_answer_is_never_retried():
    service = make_service(retry=RetryPolicy(max_attempts=5))
    calls = []
    real = service._solve

    def _counted(request, *, attempt=0):
        calls.append(attempt)
        return real(request, attempt=attempt)

    service._solve = _counted
    floored = {name: ComponentSpec(PerformanceModel(a=10.0), 40) for name in "xy"}
    response = service.submit(SolveRequest(components=floored, total_nodes=64))
    assert len(calls) == 1  # deterministic answer: no identical re-run
    assert response.status == Status.INFEASIBLE.value and not response.ok
    assert response.source == "exact"
    assert service.metrics.solve_errors == 1


def test_corrupt_results_are_retried_not_served():
    from repro.faults.chaos import corrupt_outcome

    service = make_service()
    real = service._solve
    state = {"calls": 0}

    def _corrupting(request, *, attempt=0):
        state["calls"] += 1
        outcome = real(request, attempt=attempt)
        return corrupt_outcome(outcome) if state["calls"] == 1 else outcome

    service._solve = _corrupting
    response = service.submit(make_request(64))
    assert response.ok and response.source == "exact"
    assert state["calls"] == 2
    assert service.metrics.corruptions == 1
    assert validate_outcome(make_request(64), service.cache.peek(
        make_request(64).fingerprint()
    )) is None


#: Budgets of one family, each a distinct request (none is a cache hit).
_FAMILY_BUDGETS = (64, 56, 72, 80)


def _open_breaker(service: AllocationService) -> None:
    """Fail ``FAILURE_THRESHOLD`` requests of one family in a row."""
    for budget in _FAMILY_BUDGETS[:FAILURE_THRESHOLD]:
        assert service.submit(make_request(budget)).source == "greedy"


def test_breaker_opens_and_short_circuits_the_family():
    clock = FakeClock()
    service = make_service(clock)
    calls = break_solver(service)
    _open_breaker(service)
    assert service.breaker.state(make_request(64).family_key()) == OPEN
    before = len(calls)
    # Same family, different budget: blocked before any solve attempt.
    second = service.submit(make_request(48))
    assert second.source == "greedy"
    assert len(calls) == before
    assert service.metrics.breaker_blocks == 1


def test_breaker_closes_after_a_successful_probe():
    clock = FakeClock()
    service = make_service(clock)
    real = service._solve
    break_solver(service)
    _open_breaker(service)
    service._solve = real  # the corner of the solver "recovers"
    clock.advance(RESET_TIMEOUT)
    probe = service.submit(make_request(48))  # half-open probe passes through
    assert probe.source == "exact"
    assert service.breaker.state(make_request(48).family_key()) == "closed"


def test_greedy_outcome_respects_bounds_and_validates():
    request = make_request(64)
    outcome = greedy_outcome(request)
    assert validate_outcome(request, outcome) is None
    assert outcome.message.startswith("greedy fallback")
    bounded = make_request(32)
    assert sum(greedy_outcome(bounded).allocation.values()) <= 32


def test_validate_outcome_catches_near_misses_not_only_garbage():
    """A bound violation, a wrong price and a starved exact-budget answer
    all sum within the budget with a finite objective."""
    curve = PerformanceModel(a=900.0, b=0.4, c=1.1, d=1.0)
    components = {
        "a": ComponentSpec(model=curve, max_nodes=8),
        "b": ComponentSpec(model=curve, min_nodes=4),
    }
    request = SolveRequest(components=components, total_nodes=64)
    outcome = solve_request(request)
    assert validate_outcome(request, outcome) is None
    out_of_bounds = replace(outcome, allocation={"a": 40, "b": 2})
    assert "outside" in validate_outcome(request, out_of_bounds)
    mispriced = replace(outcome, objective=1.0)
    assert "curves" in validate_outcome(request, mispriced)

    raise_the_floor = make_request(16, objective="max-min")
    starved = replace(
        greedy_outcome(raise_the_floor),
        allocation={"atm": 1, "ocn": 1, "ice": 1},
        objective=300.7,  # min over the three curves at one node: ice
    )
    assert "spent exactly" in validate_outcome(raise_the_floor, starved)
    starved_min_max = replace(starved, fingerprint=make_request(16).fingerprint(),
                              objective=1202.5)  # max: atm
    assert validate_outcome(make_request(16), starved_min_max) is None


def test_greedy_outcome_is_close_to_exact_for_min_max():
    """The greedy rung is a real answer: near the exact min-max optimum."""
    request = make_request(64)
    exact = AllocationService().submit(request)
    greedy = greedy_outcome(request)
    assert greedy.objective <= exact.objective * 1.25
