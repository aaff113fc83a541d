"""AllocationService behavior: hits, determinism, timeouts."""

from __future__ import annotations

import pytest

from repro.minlp.bnb import BnBOptions
from repro.service import (
    AllocationService,
    ServiceTimeoutError,
    solve_request,
)

from tests.service.conftest import make_minlp_request, make_request


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


@pytest.mark.parametrize("objective", ["min-max", "max-min"])
def test_direct_objectives_take_no_donor_and_no_iterations(objective):
    """Min-max and max-min are answered by ``core.greedy``: no tree, no
    iterations — while a min-sum sibling on the same service builds one."""
    service = AllocationService()
    service.submit(make_request(64, objective=objective))
    neighbor = service.submit(make_request(72, objective=objective))
    assert neighbor.ok and neighbor.status == "optimal"
    assert neighbor.iterations == 0
    outcome = service.cache.peek(neighbor.fingerprint)
    assert outcome.wall_time > 0  # a direct solve is fast, not free
    assert service.metrics.cold_solves == 2

    service.submit(make_minlp_request(64))
    sibling = service.submit(make_minlp_request(72))
    assert sibling.iterations > 0


def test_deadline_timeout_is_typed():
    service = AllocationService()
    tiny = make_minlp_request(
        4096,
        options=BnBOptions(node_limit=1, time_limit=1e-9),
    )
    with pytest.raises(ServiceTimeoutError) as err:
        service.submit(tiny, deadline=1e-9)
    assert err.value.fingerprint == tiny.fingerprint()
    assert service.metrics.timeouts == 1
    # A timed-out solve is never admitted to the cache.
    assert tiny.fingerprint() not in service.cache


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
