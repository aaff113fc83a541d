"""The synchronous batch API (``run_requests``): order, dedup,
backpressure, error envelopes — every behaviour the batch executor had, now the
serving tier's: dedup is single-flight, fan-out is the ring."""

from __future__ import annotations

import pytest

from repro.perf.model import PerformanceModel
from repro.service import (
    AdmissionPolicy,
    AsyncServingTier,
    ComponentSpec,
    ServiceOverloadError,
    SolveRequest,
    TierConfig,
    run_requests,
)

from tests.service.conftest import CURVES, hold_solves, make_request

#: Two components floored at 40 nodes each against a budget of 64: no
#: allocation exists, so the answer is ``infeasible``.
DOOMED = SolveRequest(
    components={
        name: ComponentSpec(PerformanceModel(a=100.0, d=1.0), min_nodes=40)
        for name in ("x", "y")
    },
    total_nodes=64,
)


def _tier(**overrides) -> AsyncServingTier:
    overrides.setdefault("shards", 1)
    return AsyncServingTier(TierConfig(**overrides))


def test_batch_preserves_input_order_and_dedups(request64):
    tier = _tier()
    batch = [request64, make_request(96), request64, request64]
    responses = run_requests(tier, batch)
    assert [r.fingerprint for r in responses] == [
        r.fingerprint() for r in batch
    ]
    # One solve per distinct fingerprint; duplicates answered from cache.
    assert [r.cached for r in responses] == [False, False, True, True]
    snap = tier.snapshot()
    assert snap["cold_solves"] == 2
    assert snap["cache_hits"] == 2


def test_concurrent_duplicates_ride_one_solve(request64):
    # Held in flight, the duplicates are pending together: they ride the
    # leader's solve (the tier's dedup count is ``coalesce.riders``).
    tier = _tier()
    hold_solves(tier)
    responses = run_requests(tier, [request64, request64, request64])
    assert all(r.ok for r in responses)
    snap = tier.snapshot()
    assert snap["cold_solves"] == 1
    assert snap["coalesce"]["riders"] == 2


def test_duplicate_answers_are_bit_identical(request64):
    responses = run_requests(_tier(), [request64, request64])
    assert responses[0].allocation == responses[1].allocation
    assert responses[0].objective == responses[1].objective


def test_backpressure_refuses_oversized_batches(request64):
    tier = _tier(admission=AdmissionPolicy(max_pending=2))
    with pytest.raises(ServiceOverloadError) as err:
        run_requests(tier, [request64] * 3)
    assert err.value.pending == 3 and err.value.capacity == 2
    assert tier.snapshot()["overloads"] == 1


def test_an_infeasible_request_is_an_error_envelope_not_a_crash(request64):
    # Its slot carries a typed status while the rest of the batch succeeds.
    tier = _tier()
    responses = run_requests(tier, [DOOMED, request64])
    assert not responses[0].ok
    assert responses[0].status == "infeasible"
    assert responses[0].fingerprint == DOOMED.fingerprint()
    assert responses[1].ok
    assert tier.snapshot()["resilience"]["rejections"] == 0
    assert tier.snapshot()["solve_errors"] == 1


def test_failed_duplicates_reuse_the_error_envelope():
    tier = _tier()
    hold_solves(tier)
    responses = run_requests(tier, [DOOMED, DOOMED])
    assert [r.ok for r in responses] == [False, False]
    assert [r.status for r in responses] == ["infeasible", "infeasible"]
    # The duplicate rides the first request's flight instead of re-solving.
    (shard,) = tier.shards.values()
    assert shard.service.metrics.solve_errors == 1
    assert tier.snapshot()["coalesce"]["riders"] == 1


def test_precached_requests_hit_without_resolving(request64):
    tier = _tier()
    run_requests(tier, [request64])  # the priming solve
    responses = run_requests(tier, [request64, request64])
    assert all(r.cached for r in responses)
    assert tier.snapshot()["cold_solves"] == 1


def test_shard_fan_out_matches_serial():
    # Two distinct families, so they may land on different shards.
    other = {name: dict(p, a=p["a"] * 2.0) for name, p in CURVES.items()}
    batch = [
        make_request(b, curves=curves, objective=objective)
        for objective in ("min-max", "max-min", "min-sum")
        for b, curves in ((64, None), (96, other))
    ]
    serial = run_requests(_tier(), batch)
    sharded_tier = _tier(shards=2)
    sharded = run_requests(sharded_tier, batch)
    for a, b in zip(serial, sharded):
        assert a.allocation == b.allocation
        assert a.objective == b.objective  # no solve draws: bit-identical
    assert len({sharded_tier.route(r) for r in batch}) == 2
