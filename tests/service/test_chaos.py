"""Chaos harness invariants: every request answered, bit-identical replays.

Chaos is in-process and typed (faults arrive as exceptions or tampered
outcomes, nothing sleeps), so the invariants are exact, for every
objective:

* **no lost requests** — every submit returns an envelope or raises a
  typed service error, under any injected fault mix;
* **determinism** — two services with the same chaos seed answer an
  identical request stream with bit-identical (status, source, allocation,
  objective) sequences;
* **accounting** — the metrics ledger adds up: answered requests equal
  hits + solves + degraded + rejected.

One end-to-end case runs a crash storm through ``run_requests`` and the
sharded tier; ``test_tier_chaos.py`` covers the rest of the tier's faults
(hang, corruption, unrecoverable storms).
"""

from __future__ import annotations

from repro.faults.chaos import ChaosPlan
from repro.service import (
    AllocationService,
    AsyncServingTier,
    ResiliencePolicy,
    RetryPolicy,
    ServiceError,
    ServiceRejectedError,
    TierConfig,
    run_requests,
)
from tests.service.conftest import CURVES, make_request

#: A hostile but recoverable mix: ~45% of attempts are faulted.
MIX = dict(crash_rate=0.2, hang_rate=0.1, slow_rate=0.05, corrupt_rate=0.1)


def chaos_service(seed: int = 42, **plan_kwargs) -> AllocationService:
    plan_kwargs = {**MIX, "slow_seconds": 0.0, **plan_kwargs}
    return AllocationService(
        resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=3)),
        chaos=ChaosPlan(seed=seed, **plan_kwargs),
    )


def request_stream(count: int = 60) -> list:
    """Deterministic mix of families x budgets x objectives with deliberate
    repeats (the stream comes back to its start after 36 requests)."""
    budgets = (24, 32, 48, 64)
    objectives = ("min-max", "max-min", "min-sum")
    out = []
    for i in range(count):
        scale = 1.0 + 0.5 * (i % 3)
        curves = {
            name: {**params, "a": params["a"] * scale}
            for name, params in CURVES.items()
        }
        out.append(make_request(
            budgets[(i // 3) % 4], curves=curves, objective=objectives[(i // 12) % 3]
        ))
    return out


def drive(service: AllocationService, requests) -> list[tuple]:
    """Submit every request; typed failures become tuples too (never lost)."""
    results = []
    for request in requests:
        try:
            r = service.submit(request)
            results.append(
                (r.fingerprint, r.status, r.source,
                 tuple(sorted(r.allocation.items())), r.objective)
            )
        except ServiceRejectedError as exc:
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


def test_only_typed_errors_escape():
    """A chaos run never hangs and never dies on an untyped exception."""
    service = chaos_service()
    for request in request_stream(24):
        try:
            response = service.submit(request)
            assert response.fingerprint == request.fingerprint()
        except ServiceError:
            pass  # typed: the contract allows refusal, not silence


def test_end_to_end_tier_crash_recovery():
    """A crash storm through the sharded tier and ``run_requests``.

    First attempts on every unique request crash; retries are immune, so
    the batch must recover every answer exactly, for every objective.
    """
    plan = ChaosPlan(seed=1, crash_rate=0.97, immune_after=1)
    tier = AsyncServingTier(
        TierConfig(
            shards=2,
            resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=3)),
            chaos=plan,
        )
    )
    requests = request_stream(36)
    responses = run_requests(tier, requests)
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
    assert resilience["retries"] == injected
