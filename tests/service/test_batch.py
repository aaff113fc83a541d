"""The synchronous batch API (``run_requests``): order, dedup,
backpressure, deadlines — every behaviour the batch executor had, now the
serving tier's: dedup is single-flight, fan-out is the ring."""

from __future__ import annotations

import pytest

from repro.minlp.bnb import BnBOptions
from repro.service import (
    AdmissionPolicy,
    AsyncServingTier,
    ServiceOverloadError,
    TierConfig,
    run_requests,
)

from tests.service.conftest import (
    CURVES,
    dispatched,
    hold_solves,
    make_minlp_request,
    make_request,
)


def _tier(**overrides) -> AsyncServingTier:
    overrides.setdefault("worker_mode", "inline")
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


def test_concurrent_duplicates_ride_one_solve(minlp64):
    # Off the event loop the duplicates are in flight together: they ride
    # the leader's solve (the tier's dedup count is ``coalesce.riders``).
    tier = _tier(worker_mode="thread")
    hold_solves(tier)
    responses = run_requests(tier, [minlp64, minlp64, minlp64])
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


def test_deadline_miss_is_an_error_envelope_not_a_crash(request64):
    # An enormous instance with a sub-microsecond budget cannot finish; its
    # slot carries a typed error while the rest of the batch succeeds.
    tier = _tier()
    doomed = make_minlp_request(4096, options=BnBOptions(time_limit=1e-9))
    responses = run_requests(tier, [doomed, request64])
    assert not responses[0].ok
    assert responses[0].status == "time_limit"
    assert responses[0].fingerprint == doomed.fingerprint()
    assert responses[1].ok
    assert tier.snapshot()["resilience"]["rejections"] == 0
    assert sum(
        s.service.metrics.timeouts for s in tier.shards.values()
    ) == 1


def test_failed_duplicates_reuse_the_error_envelope():
    tier = _tier(worker_mode="thread")
    hold_solves(tier)
    doomed = make_minlp_request(4096, options=BnBOptions(time_limit=1e-9))
    responses = run_requests(tier, [doomed, doomed], deadline=1e-9)
    assert [r.ok for r in responses] == [False, False]
    assert [r.status for r in responses] == ["time_limit", "time_limit"]
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


def test_process_pool_fan_out_matches_serial(minlp64):
    # Two distinct families, so they may land on different shards (and
    # worker processes).  Min-sum: the objective a process-mode shard ships
    # to its worker.
    other = {name: dict(p, a=p["a"] * 2.0) for name, p in CURVES.items()}
    batch = [minlp64, make_minlp_request(96, curves=other)]
    serial = run_requests(_tier(), batch)
    pooled_tier = _tier(worker_mode="process", shards=2)
    pooled = run_requests(pooled_tier, batch)
    for a, b in zip(serial, pooled):
        assert a.allocation == b.allocation
        assert a.objective == b.objective  # no solve draws: bit-identical
        assert b.iterations > 0
    # Both were shipped: one dispatch each beyond the two warm-ups.
    assert sum(dispatched(pooled_tier)) == 2 + len(batch)
