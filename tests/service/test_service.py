"""AllocationService behavior: hits, donors, determinism, timeouts."""

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
    # The solve RNG is seeded from the fingerprint, so any process answers
    # the same request identically — the property that makes a shared cache
    # indistinguishable from solving.
    a = solve_request(request64)
    b = solve_request(request64)
    assert a.allocation == b.allocation
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_neighbor_budget_solves_warm():
    service = AllocationService()
    donor = make_minlp_request(128)
    service.submit(donor)
    neighbor = service.submit(make_minlp_request(96))
    assert not neighbor.cached
    assert neighbor.warm_started
    assert neighbor.donor == donor.fingerprint()
    assert service.metrics.warm_solves == 1
    # On this pair the donor's incumbent prunes: less solver work than cold.
    # (Not a law on min-sum — bench S3 measures the family aggregate.)
    cold = solve_request(make_minlp_request(96))
    assert neighbor.iterations < cold.iterations
    assert service.metrics.warm_start_speedup > 1.0


@pytest.mark.parametrize("objective", ["min-max", "max-min"])
def test_direct_objectives_take_no_donor_and_no_iterations(objective):
    """Min-max and max-min are answered by ``core.greedy``: no tree, nothing
    to warm-start, so a cached sibling budget is not even looked up — while
    a min-sum sibling on the same service still chains."""
    service = AllocationService()
    service.submit(make_request(64, objective=objective))
    neighbor = service.submit(make_request(72, objective=objective))
    assert neighbor.ok and neighbor.status == "optimal"
    assert neighbor.iterations == 0
    assert not neighbor.warm_started and neighbor.donor is None
    assert not service._families  # nothing registered, nothing to prune
    outcome = service.cache.peek(neighbor.fingerprint)
    assert outcome.wall_time > 0  # a direct solve is fast, not free
    assert service.metrics.warm_solves == 0 and service.metrics.cold_solves == 2

    service.submit(make_minlp_request(64))
    sibling = service.submit(make_minlp_request(72))
    assert sibling.iterations > 0
    assert sibling.warm_started
    assert sibling.donor == make_minlp_request(64).fingerprint()


def test_donor_is_nearest_budget():
    service = AllocationService()
    for total in (16, 64, 256):
        service.submit(make_minlp_request(total))
    response = service.submit(make_minlp_request(72))
    assert response.donor == make_minlp_request(64).fingerprint()


def test_warm_start_can_be_disabled(minlp64):
    service = AllocationService(warm_start=False)
    service.submit(minlp64)
    neighbor = service.submit(make_minlp_request(72))
    assert not neighbor.warm_started and neighbor.donor is None


def test_donor_pool_prunes_evicted_entries(minlp64):
    service = AllocationService(cache_capacity=1)
    service.submit(minlp64)
    service.submit(make_minlp_request(256))  # evicts the 64-node entry
    response = service.submit(make_minlp_request(72))
    # The 64-node donor is gone from cache; the 256-node one must be used.
    assert response.donor == make_minlp_request(256).fingerprint()
    family = service._families[minlp64.family_key()]
    assert minlp64.fingerprint() not in family


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
    assert "warm_start_speedup" in snap
    text = service.metrics.render()
    assert "hit rate" in text
