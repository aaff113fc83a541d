"""AllocationService behavior: hits, determinism, iteration-free solves."""

from __future__ import annotations

import itertools

import pytest

from repro.service import AllocationService, SolveRequest, solve_request

from tests.service.conftest import CURVES, make_request


def test_hit_is_bit_identical_to_the_fresh_solve(request64):
    service = AllocationService()
    fresh = service.submit(request64)
    hit = service.submit(request64)
    assert not fresh.cached and hit.cached
    assert hit.allocation == fresh.allocation
    assert hit.objective == fresh.objective  # exact, not approx
    assert hit.fingerprint == fresh.fingerprint
    assert service.metrics.cache_hits == 1


def test_solve_is_deterministic_across_services(request64):
    # No solve draws a random number, so any process answers the same
    # request identically — the property that makes a shared cache
    # indistinguishable from solving.
    a = solve_request(request64)
    b = solve_request(request64)
    assert a.allocation == b.allocation
    assert a.objective == b.objective
    assert a.iterations == b.iterations


@pytest.mark.parametrize("objective", ["min-max", "max-min", "min-sum"])
def test_the_answer_does_not_depend_on_component_order(objective):
    """The wire format lists components sorted, a caller in any order:
    every order, on either side of the wire, is the same answer —
    allocation, objective *and* iteration count."""
    for budget in (48, 96):
        answers = set()
        for order in itertools.permutations(CURVES):
            request = make_request(
                budget, curves={n: CURVES[n] for n in order}, objective=objective
            )
            wired = SolveRequest.from_dict(request.to_dict())
            for outcome in (solve_request(request), solve_request(wired)):
                answers.add((
                    tuple(sorted(outcome.allocation.items())),
                    outcome.objective,
                    outcome.iterations,
                ))
        assert len(answers) == 1, (objective, budget, answers)


@pytest.mark.parametrize("objective", ["min-max", "max-min", "min-sum"])
def test_direct_objectives_take_no_donor_and_no_iterations(objective):
    """Every objective is answered by ``core.greedy``: no tree, no
    iterations, nothing borrowed from a cached sibling."""
    service = AllocationService()
    service.submit(make_request(64, objective=objective))
    neighbor = service.submit(make_request(72, objective=objective))
    assert neighbor.ok and neighbor.status == "optimal"
    assert neighbor.iterations == 0
    outcome = service.cache.peek(neighbor.fingerprint)
    assert outcome.wall_time > 0  # a direct solve is fast, not free
    assert service.metrics.cold_solves == 2
    alone = solve_request(make_request(72, objective=objective))
    assert neighbor.objective == alone.objective


def test_metrics_snapshot_shape(request64):
    service = AllocationService()
    service.submit(request64)
    service.submit(request64)
    snap = service.metrics.snapshot()
    assert snap["requests"] == 2
    assert snap["cache_hits"] == 1
    assert snap["hit_rate"] == 0.5
    assert snap["latency"]["count"] == 2
    assert snap["warm_solves"] == 0  # nothing warm-starts any more
    text = service.metrics.render()
    assert "hit rate" in text
