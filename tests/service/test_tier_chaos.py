"""Chaos through the serving tier: the zero-lost contract on every path.

A process-mode tier ships its :class:`ChaosPlan` to the shard workers with
every request that ships — the ones that build a MINLP, so the mix here is
min-sum — and those faults are *physical*: a crash is ``os._exit`` in the
worker, a hang is a real sleep the supervisor has to kill, a corrupt
outcome really crosses the process boundary.  Min-max and max-min requests
are answered on the shard thread and take the same plan's faults as typed
errors.  Every request must still end in an exact answer after re-dispatch
or in a typed ``stale``/``greedy``/``rejected`` response; nothing corrupt
may reach the cache; and the counters must equal the faults the plan
injected, whichever seam each attempt ran on.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import signal
import threading
from collections import Counter

import pytest

from repro.faults import ChaosPlan
from repro.obs.export import registry_samples
from repro.obs.metrics import REGISTRY
from repro.service import (
    AdmissionPolicy,
    AsyncServingTier,
    ClassThresholds,
    ResiliencePolicy,
    RetryPolicy,
    ServiceOverloadError,
    TierConfig,
    run_requests,
)
from repro.service.solver import validate_outcome
from tests.service.conftest import (
    CURVES,
    dispatched,
    expected_faults,
    make_minlp_request,
    make_request,
)

OBJECTIVES = ("min-max", "max-min", "min-sum")


def request_mix(
    families: int = 3, budgets=(24, 32, 48), repeats: int = 2,
    objective: str = "min-sum",
) -> list:
    """Families x budgets with deliberate duplicates, in a fixed order.

    Min-sum unless told otherwise: the one objective a process-mode shard
    ships to its worker, which is where the physical faults happen."""
    out = []
    for _ in range(repeats):
        for budget in budgets:
            for f in range(families):
                curves = {
                    name: {**params, "a": params["a"] * (1.0 + 0.5 * f)}
                    for name, params in CURVES.items()
                }
                out.append(make_request(budget, curves=curves, objective=objective))
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


def prints(requests) -> set[str]:
    return {r.fingerprint() for r in requests}


def injected(plan: ChaosPlan, requests, kind: str, attempts: int = 1) -> int:
    """Faults of ``kind`` the plan deals to the mix's distinct solves."""
    return sum(
        plan.fault(fp, attempt) == kind
        for fp in prints(requests)
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
    plan = ChaosPlan(seed=4, crash_rate=0.97)
    requests = request_mix(families=2, budgets=(24, 32), repeats=1)
    assert injected(plan, requests, "crash", attempts=2) == 2 * len(requests)
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
    assert snap["cold_solves"] == 0
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
    failures = REGISTRY.counter("service_worker_failures_total")
    scraped = failures.value(kind="crash")

    async def main():
        async with tier:
            first = await tier.submit(make_minlp_request(24))
            (shard,) = tier.shards.values()
            pool = shard.service.pool
            (pid,) = [pool.result(d, timeout=30.0) for d in pool.warm_up()]
            os.kill(pid, signal.SIGKILL)
            second = await tier.submit(make_minlp_request(32))
            return first, second, pool.snapshot()

    first, second, health = asyncio.run(main())
    assert first.ok and second.ok and second.source == "exact"
    assert health["restarts_used"] == 1 and health["retired"] == 0
    # A death no request may ever see raised (the executor can be found
    # broken at dispatch and swapped silently) is still booked: the pool's
    # own ledger, the tier snapshot and the scrape all read one crash.
    resilience = tier.snapshot()["resilience"]
    assert health["workers"][0]["crashes"] == 1
    assert resilience["worker_crashes"] == resilience["worker_restarts"] == 1
    assert failures.value(kind="crash") - scraped == 1


@pytest.mark.parametrize("worker_mode", ["thread", "process"])
def test_metrics_ledger_adds_up_with_two_writers(worker_mode):
    """Hits are booked on the event loop, solves on the shard thread —
    while a third thread reads the tier snapshot in a loop."""
    plan = ChaosPlan(seed=42, crash_rate=0.2, corrupt_rate=0.1, immune_after=2)
    requests = request_mix(repeats=3)
    tier = chaos_tier(plan, policy(), worker_mode=worker_mode)
    done, read_errors = threading.Event(), []

    def reader():
        try:
            seen = 0
            while not done.is_set():
                # Two series read at two instants may tear against each
                # other; one total read twice may only grow.
                requests = tier.snapshot()["requests"]
                assert requests >= seen
                seen = requests
        except Exception as exc:  # noqa: BLE001 — reported by the main thread
            read_errors.append(exc)

    scraper = threading.Thread(target=reader)
    scraper.start()
    try:
        responses = run_requests(tier, requests)
    finally:
        done.set()
        scraper.join(timeout=30)
    assert not scraper.is_alive() and not read_errors, read_errors
    assert len(responses) == len(requests)
    booked = 0
    for shard in tier.shards.values():
        m = shard.service.metrics
        assert m.requests == (
            m.cache_hits + m.cold_solves + m.solve_errors
            + m.degraded_stale + m.degraded_greedy + m.rejections
        )
        assert m.request_latency.count() == m.requests
        booked += m.requests
    assert booked == tier.metrics.requests == tier.metrics.request_latency.count()
    # Riders share their leader's booking; everyone else is booked once.
    assert booked + tier.snapshot()["coalesce"]["riders"] == len(requests)


def test_every_worker_mode_gives_the_same_answers():
    """One seeded mix of all three objectives, three ways to run the solve,
    identical answers — whichever process the solve ran in, on a default
    config: no solve reads state an earlier one left behind.
    """
    requests = [
        r for o in OBJECTIVES for r in request_mix(budgets=(24, 48), objective=o)
    ]
    answers = {}
    for mode in ("inline", "thread", "process"):
        tier = chaos_tier(None, worker_mode=mode)
        answers[mode] = [
            (r.fingerprint, r.status, tuple(sorted(r.allocation.items())),
             r.objective)
            for r in run_requests(tier, requests)
        ]
        assert all(status == "optimal" for _, status, _, _ in answers[mode])
    assert answers["inline"] == answers["thread"] == answers["process"]


# -- the routing: only what builds a MINLP crosses the process boundary --------


def test_direct_objectives_never_leave_the_shard_thread(tracer):
    """A process-mode tier answers a min-max / max-min burst itself: every
    pool stays at its warm-up dispatch.  The min-sum request that follows is
    the first thing its shard ships, and the only trace with a worker span."""
    burst = [
        r for o in ("min-max", "max-min")
        for r in request_mix(repeats=1, objective=o)
    ]
    tier = chaos_tier(None)

    async def drive():
        async with tier:
            answers = await asyncio.gather(*(tier.submit(r) for r in burst))
            after_burst = dispatched(tier)
            shipped = await tier.submit(make_minlp_request(40))
            return answers, after_burst, shipped

    answers, after_burst, shipped = asyncio.run(drive())
    assert all(r.ok and r.source == "exact" and r.iterations == 0 for r in answers)
    assert after_burst == [1, 1]
    assert sorted(dispatched(tier)) == [1, 2]
    assert shipped.ok and shipped.iterations > 0

    def span_names(response):
        (root,) = tracer.trace_roots(response.trace_id)
        return {s.name for s, _ in root.walk()}

    assert "worker.solve" in span_names(shipped)
    assert not any("worker.solve" in span_names(r) for r in answers)


def test_mixed_objectives_under_chaos_book_each_fault_once_across_both_seams():
    """Crash / hang / corrupt chaos over a process-mode tier serving all three
    objectives: min-sum attempts die physically in the worker (booked by the
    pool that saw it), min-max / max-min attempts take the same plan's faults
    as typed errors on the shard thread (booked by the retry loop — although
    a pool *is* installed).  Nothing is lost and every counter equals the
    faults dealt, with restarts only for the deaths that were real."""
    plan = ChaosPlan(
        seed=3, crash_rate=0.3, hang_rate=0.1, corrupt_rate=0.1,
        immune_after=2, hang_seconds=60.0,
    )
    by_objective = {
        o: request_mix(budgets=(24, 28, 32, 36), repeats=1, objective=o)
        for o in OBJECTIVES
    }
    # Interleaved, so both seams are busy on every shard at once.
    requests = [r for trio in zip(*by_objective.values()) for r in trio]
    dealt = expected_faults(plan, prints(requests), max_attempts=3)
    shipped = expected_faults(
        plan, prints(by_objective["min-sum"]), max_attempts=3
    )
    for kind in ("crash", "hang", "corrupt"):
        assert 0 < shipped[kind] < dealt[kind]  # each kind hits both seams
    tier = chaos_tier(plan, policy(hang_timeout=2.0))
    responses = run_requests(tier, requests)
    assert len(responses) == len(requests)  # zero lost
    assert all(r.ok and r.source == "exact" for r in responses)
    assert [r.fingerprint for r in responses] == [r.fingerprint() for r in requests]
    resilience = tier.snapshot()["resilience"]
    assert resilience["worker_crashes"] == dealt["crash"]
    assert resilience["worker_hangs"] == dealt["hang"]
    assert resilience["corruptions"] == dealt["corrupt"]
    assert resilience["retries"] == sum(dealt.values())
    assert resilience["worker_restarts"] == shipped["crash"] + shipped["hang"]
    assert_nothing_corrupt_cached(tier, requests)


# -- one metrics stack: scrape == snapshot == shard views ----------------------


def service_counts(registry) -> dict:
    """Every integer a ``service_*`` family holds: counter series, histogram
    counts and buckets (float sums and derived quantiles left out)."""
    out = {}
    for name, rows in registry_samples(registry).items():
        if not name.startswith("service_") or name.endswith("_sum"):
            continue
        for key, value in rows.items():
            if value and "quantile" not in dict(key):
                out[name, key] = value
    return out


#: Families the tier books on its own scope, on no shard.
TIER_OWN = ("service_overloads_total", "service_tier_request_seconds")
#: Leaf components keep a counter of their own next to the process family.
LEAVES = ("service_admission_total", "service_coalesced_total", "service_cache_")


@pytest.mark.parametrize("worker_mode", ["inline", "thread", "process"])
def test_scrape_equals_snapshot_equals_shard_views(worker_mode):
    """At the parent commit in-process crashes and hangs never reached the
    scrape (0 / 0 against a snapshot of 17 / 7), and a supervised death was
    booked in two places.  Now a count has one home: family by family, the
    process scrape's delta, the tier's scope and the sum of its shards'
    scopes are the same numbers — under chaos, hits, a degraded answer, a
    shed and a refused batch."""
    plan = ChaosPlan(
        seed=3, crash_rate=0.3, hang_rate=0.1, corrupt_rate=0.1,
        immune_after=2, hang_seconds=60.0,
    )
    storm = request_mix(budgets=(24, 28, 32, 36, 40, 44, 48, 52), repeats=1)
    assert len(storm) == 24
    dealt = expected_faults(plan, prints(storm), max_attempts=3)
    assert dealt["crash"] and dealt["hang"] and dealt["corrupt"]
    always = {
        "interactive": ClassThresholds(degrade_at=1.0, shed_at=1.0),
        "background": ClassThresholds(degrade_at=0.0, shed_at=1.0),
        "batch": ClassThresholds(degrade_at=0.0, shed_at=0.0),
    }
    before = service_counts(REGISTRY)
    tier = chaos_tier(
        plan,
        policy(hang_timeout=2.0),
        worker_mode=worker_mode,
        admission=AdmissionPolicy(max_pending=40, thresholds=always),
    )
    with pytest.raises(ServiceOverloadError):  # refused whole, nothing runs
        run_requests(tier, [make_request(100 + i) for i in range(41)])

    async def drive():
        async with tier:
            exact = await asyncio.gather(
                *(tier.submit(r, priority="interactive") for r in storm)
            )
            hits = [await tier.submit(r, priority="interactive") for r in storm[:6]]
            degraded = await tier.submit(make_request(60), priority="background")
            with pytest.raises(ServiceOverloadError):
                await tier.submit(make_request(61), priority="batch")
            return exact, hits, degraded

    exact, hits, degraded = asyncio.run(drive())
    assert all(r.ok and r.source == "exact" for r in exact)
    assert all(r.source == "cache" for r in hits) and degraded.source == "greedy"

    after = service_counts(REGISTRY)
    scrape = {
        k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)
    }
    tier_scope = service_counts(tier.metrics.registry)
    shard_sum: Counter = Counter()
    for shard in tier.shards.values():
        shard_sum.update(service_counts(shard.service.metrics.registry))
    scoped = {k: v for k, v in scrape.items() if not k[0].startswith(LEAVES)}
    assert scoped == tier_scope
    assert dict(shard_sum) == {
        k: v for k, v in tier_scope.items() if not k[0].startswith(TIER_OWN)
    }

    # The snapshot is those same series, and they are the injected faults.
    snap = tier.snapshot()
    resilience = snap["resilience"]
    failures = "service_worker_failures_total"
    for kind, key in (("crash", "worker_crashes"), ("hang", "worker_hangs")):
        # At the parent the inline and thread scrape read 0 / 0 here.
        assert resilience[key] == dealt[kind] == scrape[failures, (("kind", kind),)]
    assert resilience["corruptions"] == dealt["corrupt"]
    assert resilience["retries"] == sum(dealt.values())
    if worker_mode == "process":
        assert resilience["worker_restarts"] == dealt["crash"] + dealt["hang"]
    assert snap["requests"] == len(storm) + len(hits) + 1
    assert snap["cache_hits"] == len(hits) and snap["degraded_greedy"] == 1
    assert snap["cold_solves"] == len(storm)
    assert snap["overloads"] == 2 == scrape["service_overloads_total", ()]
    assert snap["served"] == snap["requests"] + 1  # the shed was timed too
    assert snap["served"] == scrape["service_tier_request_seconds_count", ()]
    assert snap["latency"]["count"] == snap["served"]
    for outcome, key in (("hit", "cache_hits"), ("greedy", "degraded_greedy")):
        assert scrape["service_requests_total", (("outcome", outcome),)] == snap[key]

    # The leaves' own counters agree with the process families too.
    def leaf(name, **labels):
        return sum(
            v for (n, key), v in scrape.items()
            if n == name and labels.items() <= dict(key).items()
        )

    admission, coalesce = snap["admission"], snap["coalesce"]
    assert leaf("service_admission_total", decision="accept") == admission["accepted"]
    assert leaf("service_admission_total", decision="degrade") == admission["degraded"]
    assert leaf("service_admission_total", decision="shed") == admission["shed"]
    assert leaf("service_coalesced_total", outcome="leader") == coalesce["leaders"]
    assert leaf("service_coalesced_total", outcome="rider") == coalesce["riders"]
    for stat in ("hits", "misses", "inserts"):
        assert leaf(f"service_cache_{stat}_total") == sum(
            getattr(s.service.cache.stats, stat) for s in tier.shards.values()
        )
