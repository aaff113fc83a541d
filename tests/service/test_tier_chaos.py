"""Chaos through the serving tier: the zero-lost contract on every path.

A process-mode tier ships its :class:`ChaosPlan` to the shard workers, so
faults are *physical* — a crash is ``os._exit`` in the worker, a hang is a
real sleep the supervisor has to kill, a corrupt outcome really crosses
the process boundary.  Every request must still end in an exact answer
after re-dispatch or in a typed ``stale``/``greedy``/``rejected`` response;
nothing corrupt may reach the cache; and the counters must equal the
faults the plan injected.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.faults import ChaosPlan
from repro.service import (
    AsyncServingTier,
    ResiliencePolicy,
    RetryPolicy,
    TierConfig,
    run_requests,
)
from repro.service.solver import validate_outcome
from tests.service.conftest import CURVES, make_request


def request_mix(families: int = 3, budgets=(24, 32, 48), repeats: int = 2) -> list:
    """Families x budgets with deliberate duplicates, in a fixed order."""
    out = []
    for _ in range(repeats):
        for budget in budgets:
            for f in range(families):
                curves = {
                    name: {**params, "a": params["a"] * (1.0 + 0.5 * f)}
                    for name, params in CURVES.items()
                }
                out.append(make_request(budget, curves=curves))
    return out


def policy(**kwargs) -> ResiliencePolicy:
    kwargs.setdefault(
        "retry", RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
    )
    return ResiliencePolicy(**kwargs)


def chaos_tier(plan: ChaosPlan | None, resilience=None, **overrides):
    overrides.setdefault("worker_mode", "process")
    overrides.setdefault("shards", 2)
    return AsyncServingTier(
        TierConfig(resilience=resilience, chaos=plan, **overrides)
    )


def injected(plan: ChaosPlan, requests, kind: str, attempts: int = 1) -> int:
    """Faults of ``kind`` the plan deals to the mix's distinct solves."""
    return sum(
        plan.fault(fp, attempt) == kind
        for fp in {r.fingerprint() for r in requests}
        for attempt in range(attempts)
    )


def assert_nothing_corrupt_cached(tier, requests) -> None:
    by_fp = {r.fingerprint(): r for r in requests}
    for shard in tier.shards.values():
        for fp, request in by_fp.items():
            outcome = shard.service.cache.peek(fp)
            if outcome is not None:
                assert validate_outcome(request, outcome) is None


def test_worker_crash_mid_solve_is_redispatched_to_an_exact_answer():
    plan = ChaosPlan(seed=7, crash_rate=0.6, immune_after=1)
    requests = request_mix()
    tier = chaos_tier(plan, policy())
    responses = run_requests(tier, requests)
    assert len(responses) == len(requests)  # zero lost
    assert all(r.ok and r.source in ("exact", "cache") for r in responses)
    crashes = injected(plan, requests, "crash")
    resilience = tier.snapshot()["resilience"]
    assert crashes > 0
    assert resilience["worker_crashes"] == crashes
    assert resilience["worker_restarts"] == crashes
    assert resilience["retries"] == crashes
    assert resilience["worker_hangs"] == resilience["corruptions"] == 0
    assert_nothing_corrupt_cached(tier, requests)


def test_hung_worker_is_killed_and_the_solve_redispatched():
    # At the parent commit this awaited forever: the tier's process path
    # had no harvest timeout.
    plan = ChaosPlan(seed=3, hang_rate=0.5, immune_after=1, hang_seconds=60.0)
    requests = request_mix(families=2, budgets=(24, 32), repeats=1)
    hangs = injected(plan, requests, "hang")
    assert 0 < hangs <= 3  # each costs one hang_timeout of wall time
    tier = chaos_tier(plan, policy(hang_timeout=2.0))
    responses = run_requests(tier, requests)
    assert all(r.ok and r.source == "exact" for r in responses)
    resilience = tier.snapshot()["resilience"]
    assert resilience["worker_hangs"] == hangs
    assert resilience["worker_restarts"] == hangs
    assert resilience["retries"] == hangs
    assert resilience["worker_crashes"] == 0


def test_corrupt_worker_result_is_neither_served_nor_cached():
    # At the parent commit the tampered outcome was answered as exact *and*
    # admitted to the cache.
    plan = ChaosPlan(seed=11, corrupt_rate=0.6, immune_after=1)
    requests = request_mix()
    tier = chaos_tier(plan, policy())
    responses = run_requests(tier, requests)
    by_fp = {r.fingerprint(): r for r in requests}
    for response in responses:
        assert response.ok and response.source in ("exact", "cache")
        assert sum(response.allocation.values()) <= by_fp[
            response.fingerprint
        ].total_nodes
    corruptions = injected(plan, requests, "corrupt")
    resilience = tier.snapshot()["resilience"]
    assert corruptions > 0
    assert resilience["corruptions"] == corruptions
    assert resilience["retries"] == corruptions
    assert resilience["worker_restarts"] == 0  # a bad answer is not a death
    assert_nothing_corrupt_cached(tier, requests)


def test_unrecoverable_storm_ends_in_typed_degraded_answers():
    # No attempt survives: every request must still be answered, by the
    # ladder, with explicit provenance — and the dying slots retire instead
    # of forking forever.
    plan = ChaosPlan(seed=5, crash_rate=0.97)
    requests = request_mix(families=2, budgets=(24, 32), repeats=1)
    tier = chaos_tier(
        plan,
        policy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            restart_budget=2,
        ),
    )
    responses = run_requests(tier, requests)
    assert len(responses) == len(requests)
    assert {r.source for r in responses} == {"greedy"}
    snap = tier.snapshot()
    assert snap["degraded_greedy"] == len(requests)
    assert snap["cold_solves"] == snap["warm_solves"] == 0
    # Three deaths in a row retire a slot with a budget of two restarts.
    for shard in tier.shards.values():
        if shard.requests:
            assert shard.service.pool.snapshot()["restarts_used"] <= 2
    no_greedy = chaos_tier(
        plan,
        policy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            allow_greedy=False,
        ),
    )
    refused = run_requests(no_greedy, requests[:2])
    assert [r.status for r in refused] == ["rejected", "rejected"]
    assert all(r.source == "rejected" and not r.ok for r in refused)


def test_default_config_tier_survives_a_killed_worker():
    """No resilience policy: a worker death is still re-dispatched once."""
    plan = ChaosPlan(seed=7, crash_rate=0.6, immune_after=1)
    requests = request_mix(repeats=1)
    tier = chaos_tier(plan)
    responses = run_requests(tier, requests)
    assert all(r.ok and r.source == "exact" for r in responses)
    assert tier.snapshot()["resilience"]["worker_crashes"] == injected(
        plan, requests, "crash"
    )


def test_worker_killed_between_requests_is_replaced_transparently():
    tier = chaos_tier(None, shards=1)

    async def main():
        async with tier:
            first = await tier.submit(make_request(24))
            (shard,) = tier.shards.values()
            pool = shard.service.pool
            (pid,) = [pool.result(d, timeout=30.0) for d in pool.warm_up()]
            os.kill(pid, signal.SIGKILL)
            second = await tier.submit(make_request(32))
            return first, second, pool.snapshot()

    first, second, health = asyncio.run(main())
    assert first.ok and second.ok and second.source == "exact"
    assert health["restarts_used"] == 1 and health["retired"] == 0


@pytest.mark.parametrize("worker_mode", ["thread", "process"])
def test_metrics_ledger_adds_up_with_two_writers(worker_mode):
    """Hits are booked on the event loop, solves on the shard thread."""
    plan = ChaosPlan(seed=42, crash_rate=0.2, corrupt_rate=0.1, immune_after=2)
    requests = request_mix(repeats=3)
    tier = chaos_tier(plan, policy(), worker_mode=worker_mode)
    responses = run_requests(tier, requests)
    assert len(responses) == len(requests)
    booked = 0
    for shard in tier.shards.values():
        m = shard.service.metrics
        assert m.requests == (
            m.cache_hits + m.cold_solves + m.warm_solves + m.solve_errors
            + m.degraded_stale + m.degraded_greedy + m.rejections
        )
        assert m.request_latency.total == m.requests
        booked += m.requests
    # Riders share their leader's booking; everyone else is booked once.
    assert booked + tier.snapshot()["coalesce"]["riders"] == len(requests)


def test_every_worker_mode_gives_the_same_answers():
    """One seeded mix, three ways to run the solve, identical answers.

    ``share_cuts`` is off: a cut pool carried across solves may pick a
    different optimal tie, and only in-process modes have one (the caveat
    ``test_process_mode_solves_and_chains_warm_starts`` documents).
    """
    requests = request_mix()
    answers = {}
    for mode in ("inline", "thread", "process"):
        tier = chaos_tier(None, worker_mode=mode, share_cuts=False)
        answers[mode] = [
            (r.fingerprint, r.status, tuple(sorted(r.allocation.items())),
             r.objective)
            for r in run_requests(tier, requests)
        ]
    assert answers["inline"] == answers["thread"] == answers["process"]
