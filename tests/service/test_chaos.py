"""Chaos harness invariants: every request answered, bit-identical replays.

The deterministic suite drives the *in-process* chaos mode (faults arrive
as typed exceptions, no real processes), so the invariants are exact:

* **no lost requests** — every submit returns an envelope or raises a
  typed service error, under any injected fault mix;
* **determinism** — two services with the same chaos seed answer an
  identical request stream with bit-identical (status, source, allocation,
  objective) sequences;
* **accounting** — the metrics ledger adds up: answered requests equal
  hits + solves + degraded + rejected.

One end-to-end case runs the *in-worker* mode through ``run_requests``:
real ``os._exit`` crashes inside the tier's supervised workers, recovered
without restarting the service.  ``test_tier_chaos.py`` covers the rest of
the physical faults (hang, corruption, unrecoverable storms).
"""

from __future__ import annotations

import pytest

from repro.faults import ChaosPlan
from repro.service import (
    AllocationService,
    AsyncServingTier,
    ResiliencePolicy,
    RetryPolicy,
    ServiceError,
    ServiceRejectedError,
    ServiceTimeoutError,
    TierConfig,
    run_requests,
)
from tests.service.conftest import CURVES, make_request

#: A hostile but recoverable mix: ~45% of attempts are faulted.
MIX = dict(crash_rate=0.2, hang_rate=0.1, slow_rate=0.05, corrupt_rate=0.1)


def chaos_service(seed: int = 42, **plan_kwargs) -> AllocationService:
    plan_kwargs = {**MIX, "slow_seconds": 0.0, **plan_kwargs}
    return AllocationService(
        resilience=ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        ),
        chaos=ChaosPlan(seed=seed, **plan_kwargs),
        sleeper=lambda _s: None,
    )


def request_stream(count: int = 60, **kwargs) -> list:
    """Deterministic mix of families x budgets with deliberate repeats."""
    budgets = (24, 32, 48, 64)
    out = []
    for i in range(count):
        scale = 1.0 + 0.5 * (i % 3)
        curves = {
            name: {**params, "a": params["a"] * scale}
            for name, params in CURVES.items()
        }
        out.append(make_request(budgets[(i // 3) % 4], curves=curves, **kwargs))
    return out


def drive(service: AllocationService, requests) -> list[tuple]:
    """Submit every request; typed failures become tuples too (never lost)."""
    results = []
    for request in requests:
        try:
            r = service.submit(request, deadline=30.0)
            results.append(
                (r.fingerprint, r.status, r.source,
                 tuple(sorted(r.allocation.items())), r.objective)
            )
        except (ServiceRejectedError, ServiceTimeoutError) as exc:
            results.append((request.fingerprint(), type(exc).__name__,
                            "rejected", (), None))
    return results


def test_no_request_is_lost_under_chaos():
    service = chaos_service()
    requests = request_stream()
    results = drive(service, requests)
    assert len(results) == len(requests)
    # Under this recoverable mix with retries, everything gets an answer.
    assert all(source != "rejected" for *_, source, _a, _o in
               [(r[0], r[1], r[2], r[3], r[4]) for r in results])
    assert service.metrics.worker_crashes + service.metrics.worker_hangs > 0


def test_seeded_chaos_replays_bit_identically():
    requests = request_stream()
    first = drive(chaos_service(seed=42), requests)
    second = drive(chaos_service(seed=42), requests)
    assert first == second
    third = drive(chaos_service(seed=43), requests)
    assert third != first  # a different seed injects a different storm


def test_unrecoverable_chaos_still_answers_every_request():
    """Rungs below exact absorb even a non-recovering fault storm."""
    service = chaos_service(crash_rate=0.95, hang_rate=0.0, slow_rate=0.0,
                            corrupt_rate=0.0)
    requests = request_stream(24)
    results = drive(service, requests)
    assert len(results) == len(requests)
    sources = {source for _fp, _st, source, _a, _o in results}
    assert "greedy" in sources  # the ladder carried the load


def test_metrics_ledger_adds_up_under_chaos():
    service = chaos_service()
    requests = request_stream()
    drive(service, requests)
    m = service.metrics
    answered = (
        m.cache_hits + m.cold_solves + m.solve_errors
        + m.degraded_stale + m.degraded_greedy + m.rejections
    )
    assert m.requests == answered
    assert m.requests == len(requests)
    snap = m.snapshot()["resilience"]
    assert snap["worker_crashes"] == m.worker_crashes
    assert snap["retries"] == m.retries


def test_typed_errors_only_under_deadline():
    """A deadline run never hangs and never dies on an untyped exception."""
    service = chaos_service()
    for request in request_stream(24):
        try:
            response = service.submit(request, deadline=5.0)
            assert response.fingerprint == request.fingerprint()
        except ServiceError:
            pass  # typed: the contract allows refusal, not silence


@pytest.mark.slow
def test_end_to_end_pool_crash_recovery():
    """Real worker deaths (``os._exit``) inside the tier's supervised workers.

    First attempts on every unique request crash physically; retries are
    immune, so the batch must recover every answer exactly — without the
    service process restarting.  Min-sum: the objective a process-mode shard
    ships to its worker (a min-max request is answered on the event loop).
    """
    plan = ChaosPlan(seed=1, crash_rate=0.97, immune_after=1)
    tier = AsyncServingTier(
        TierConfig(
            shards=2,
            worker_mode="process",
            resilience=ResiliencePolicy(
                retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
                hang_timeout=60.0,
            ),
            chaos=plan,
        )
    )
    requests = request_stream(8, objective="min-sum")
    responses = run_requests(tier, requests, deadline=30.0)
    assert len(responses) == len(requests)
    assert all(r.ok for r in responses)
    assert all(r.source in ("exact", "cache") for r in responses)
    injected = sum(
        plan.fault(fp, 0) == "crash"
        for fp in {r.fingerprint() for r in requests}
    )
    resilience = tier.snapshot()["resilience"]
    assert injected > 0
    assert resilience["worker_crashes"] == injected
    assert resilience["worker_restarts"] == injected
    assert resilience["retries"] == injected
