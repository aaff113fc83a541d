"""ChaosPlan: seeded, keyed, replayable serving-tier fault draws."""

from __future__ import annotations

import pytest

from repro.faults.chaos import KINDS, ChaosPlan, chaotic_solve, corrupt_outcome
from repro.service import WorkerCrashError, WorkerHangError
from repro.service.solver import solve_request, validate_outcome
from tests.service.conftest import make_request

PLAN = ChaosPlan(
    seed=7, crash_rate=0.2, hang_rate=0.1, slow_rate=0.1, corrupt_rate=0.1
)


def test_draws_are_keyed_not_ordered():
    a = [PLAN.fault(f"fp{i}", 0) for i in range(50)]
    b = [PLAN.fault(f"fp{i}", 0) for i in reversed(range(50))]
    assert a == list(reversed(b))


def test_same_seed_same_faults_different_seed_differs():
    twin = ChaosPlan(
        seed=7, crash_rate=0.2, hang_rate=0.1, slow_rate=0.1, corrupt_rate=0.1
    )
    other = ChaosPlan(
        seed=8, crash_rate=0.2, hang_rate=0.1, slow_rate=0.1, corrupt_rate=0.1
    )
    draws = [(f"fp{i}", a) for i in range(30) for a in range(3)]
    assert [PLAN.fault(*d) for d in draws] == [twin.fault(*d) for d in draws]
    assert [PLAN.fault(*d) for d in draws] != [other.fault(*d) for d in draws]


def test_rates_govern_the_long_run_mix():
    draws = [PLAN.fault(f"fp{i}", 0) for i in range(2000)]
    for kind, rate in zip(KINDS, (0.2, 0.1, 0.1, 0.1)):
        frac = draws.count(kind) / len(draws)
        assert rate * 0.6 < frac < rate * 1.5, (kind, frac)
    assert draws.count(None) / len(draws) > 0.35


def test_immune_after_clears_later_attempts():
    plan = ChaosPlan(seed=7, crash_rate=0.9, immune_after=2)
    assert all(plan.fault(f"fp{i}", 2) is None for i in range(100))
    assert all(plan.fault(f"fp{i}", 5) is None for i in range(100))
    assert any(plan.fault(f"fp{i}", 0) for i in range(100))


def test_inactive_plan_never_fires():
    assert ChaosPlan(seed=1).fault("fp", 0) is None
    assert not ChaosPlan(seed=1).active
    assert PLAN.active


@pytest.mark.parametrize(
    "kwargs",
    [
        {"crash_rate": 1.0},
        {"crash_rate": -0.1},
        {"crash_rate": 0.5, "hang_rate": 0.5},
        {"immune_after": 0},
        {"slow_rate": 0.6, "corrupt_rate": 0.5},
        {"slow_seconds": -1.0},
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        ChaosPlan(seed=0, **kwargs)


def test_corrupt_outcome_fails_validation():
    request = make_request(48)
    outcome = solve_request(request)
    assert validate_outcome(request, outcome) is None
    assert validate_outcome(request, corrupt_outcome(outcome)) is not None


def test_chaotic_solve_raises_typed_worker_errors():
    request = make_request(48)
    fingerprint = request.fingerprint()
    crash = ChaosPlan(seed=0, crash_rate=0.999)
    with pytest.raises(WorkerCrashError) as err:
        chaotic_solve(crash, solve_request)(request)
    assert err.value.fingerprint == fingerprint
    hang = ChaosPlan(seed=0, hang_rate=0.999)
    with pytest.raises(WorkerHangError):
        chaotic_solve(hang, solve_request)(request)


def test_chaotic_solve_clean_path_matches_base():
    request = make_request(48)
    clean = chaotic_solve(ChaosPlan(seed=0), solve_request)(request).to_dict()
    base = solve_request(request).to_dict()
    clean.pop("wall_time"), base.pop("wall_time")  # real time, not comparable
    assert clean == base


def test_describe_names_the_active_rates():
    text = PLAN.describe()
    assert "seed=7" in text and "crash=20%" in text
