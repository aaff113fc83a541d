"""Admission backpressure: typed shed, retry-after hints, shed accounting."""

from __future__ import annotations

import pytest

from repro.obs.metrics import REGISTRY
from repro.service import (
    AdmissionPolicy,
    AsyncServingTier,
    ServiceOverloadError,
    TierConfig,
    run_requests,
)
from tests.service.conftest import make_request


def tier_with_capacity(max_pending: int) -> AsyncServingTier:
    return AsyncServingTier(
        TierConfig(
            shards=1,
            worker_mode="inline",
            admission=AdmissionPolicy(max_pending=max_pending),
        )
    )


def oversized_batch(n: int) -> list:
    return [make_request(24 + i) for i in range(n)]


def test_oversized_batch_is_refused_with_a_typed_error():
    with pytest.raises(ServiceOverloadError) as err:
        run_requests(tier_with_capacity(2), oversized_batch(5))
    assert err.value.pending == 5
    assert err.value.capacity == 2


def test_retry_after_hint_scales_with_the_excess():
    tier = tier_with_capacity(2)
    with pytest.raises(ServiceOverloadError) as err:
        run_requests(tier, oversized_batch(5), deadline=0.5)
    # No latency history yet: the hint falls back to excess x deadline.
    assert err.value.retry_after == pytest.approx(3 * 0.5)
    assert "retry after" in str(err.value)
    # With observed traffic the hint tracks the measured mean latency.
    tier.latency.observe(0.2)
    with pytest.raises(ServiceOverloadError) as err:
        run_requests(tier, oversized_batch(4), deadline=0.5)
    assert err.value.retry_after == pytest.approx(2 * 0.2)


def test_retry_after_defaults_conservatively_without_any_signal():
    with pytest.raises(ServiceOverloadError) as err:
        run_requests(tier_with_capacity(3), oversized_batch(4))
    assert err.value.retry_after > 0.0


def test_overload_counter_matches_shed_events():
    tier = tier_with_capacity(2)
    before = REGISTRY.counter("service_overloads_total").value()
    for _ in range(3):
        with pytest.raises(ServiceOverloadError):
            run_requests(tier, oversized_batch(4))
    assert tier.snapshot()["overloads"] == 3
    after = REGISTRY.counter("service_overloads_total").value()
    assert after - before == 3
    # A refused batch burns SLO budget for every request it carried.
    assert tier.slo.snapshot()["priorities"]["batch"]["shed_rate"] == 1.0
    # Admitted batches do not touch the overload ledger.
    run_requests(tier, [make_request(24)])
    assert tier.snapshot()["overloads"] == 3


def test_shed_batches_never_run_any_solve():
    tier = tier_with_capacity(1)
    with pytest.raises(ServiceOverloadError):
        run_requests(tier, oversized_batch(3))
    snap = tier.snapshot()
    assert snap["cold_solves"] == 0 and snap["requests"] == 0
    assert all(len(s.service.cache) == 0 for s in tier.shards.values())
