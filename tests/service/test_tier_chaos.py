"""Chaos through the serving tier: the zero-lost contract on every path.

A tier's :class:`ChaosPlan` is injected into every solve, in-process and
typed: a crash or hang is raised as its error, a slow attempt books its
delay, a corrupt outcome is returned tampered.  The mix here covers all
three objectives.  Every request must still end in an exact answer after a
retry or in a typed ``stale``/``greedy``/``rejected`` response; nothing
corrupt may reach the cache; and the counters must equal the faults the
plan injected.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
from collections import Counter

import pytest

from repro.faults.chaos import ChaosPlan
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
from repro.service.solver import solve_request, validate_outcome
from tests.obs.test_export import registry_samples
from tests.service.conftest import CURVES, expected_faults, make_request

OBJECTIVES = ("min-max", "max-min", "min-sum")


def request_mix(
    families: int = 3, budgets=(24, 32, 48), repeats: int = 2,
    objectives=OBJECTIVES,
) -> list:
    """Families x budgets x objectives with deliberate duplicates, in a
    fixed order."""
    out = []
    for _ in range(repeats):
        for budget in budgets:
            for f in range(families):
                curves = {
                    name: {**params, "a": params["a"] * (1.0 + 0.5 * f)}
                    for name, params in CURVES.items()
                }
                out.extend(
                    make_request(budget, curves=curves, objective=objective)
                    for objective in objectives
                )
    return out


def policy(**kwargs) -> ResiliencePolicy:
    kwargs.setdefault("retry", RetryPolicy(max_attempts=3))
    return ResiliencePolicy(**kwargs)


def chaos_tier(plan: ChaosPlan | None, resilience=None, **overrides):
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
    assert resilience["retries"] == crashes
    assert resilience["worker_hangs"] == resilience["corruptions"] == 0
    assert_nothing_corrupt_cached(tier, requests)


def test_hung_solve_is_retried_to_an_exact_answer():
    plan = ChaosPlan(seed=3, hang_rate=0.5, immune_after=1)
    requests = request_mix(families=2, budgets=(24, 32), repeats=1)
    hangs = injected(plan, requests, "hang")
    assert hangs > 0
    tier = chaos_tier(plan, policy())
    responses = run_requests(tier, requests)
    assert all(r.ok and r.source == "exact" for r in responses)
    resilience = tier.snapshot()["resilience"]
    assert resilience["worker_hangs"] == hangs
    assert resilience["retries"] == hangs
    assert resilience["worker_crashes"] == 0


def test_corrupt_worker_result_is_neither_served_nor_cached():
    # At one time the tampered outcome was answered as exact *and* admitted
    # to the cache.
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
    assert resilience["worker_crashes"] == 0  # a bad answer is not a crash
    assert_nothing_corrupt_cached(tier, requests)


def test_unrecoverable_storm_ends_in_typed_degraded_answers():
    # No attempt survives: every request must still be answered, by the
    # ladder, with explicit provenance.
    plan = ChaosPlan(seed=1, crash_rate=0.97)
    requests = request_mix(families=2, budgets=(24, 32), repeats=1)
    assert injected(plan, requests, "crash", attempts=2) == 2 * len(requests)
    tier = chaos_tier(plan, policy(retry=RetryPolicy(max_attempts=2)))
    responses = run_requests(tier, requests)
    assert len(responses) == len(requests)
    assert {r.source for r in responses} == {"greedy"}
    snap = tier.snapshot()
    assert snap["degraded_greedy"] == len(requests)
    assert snap["cold_solves"] == 0
    no_greedy = chaos_tier(
        plan, policy(retry=RetryPolicy(max_attempts=2), allow_greedy=False)
    )
    refused = run_requests(no_greedy, requests[:2])
    assert [r.status for r in refused] == ["rejected", "rejected"]
    assert all(r.source == "rejected" and not r.ok for r in refused)


def test_default_config_tier_survives_a_killed_worker():
    """No resilience policy: an injected crash is still retried once."""
    plan = ChaosPlan(seed=7, crash_rate=0.6, immune_after=1)
    requests = request_mix(repeats=1)
    tier = chaos_tier(plan)
    responses = run_requests(tier, requests)
    assert all(r.ok and r.source == "exact" for r in responses)
    assert tier.snapshot()["resilience"]["worker_crashes"] == injected(
        plan, requests, "crash"
    )


def test_metrics_ledger_adds_up_while_a_thread_reads_it():
    """Requests are booked on the event loop while a second thread reads the
    tier snapshot in a loop."""
    plan = ChaosPlan(seed=42, crash_rate=0.2, corrupt_rate=0.1, immune_after=2)
    requests = request_mix(repeats=2)
    tier = chaos_tier(plan, policy())
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


def test_answers_under_chaos_are_the_fault_free_answers():
    """One seeded mix of all three objectives, with and without a fault
    storm that every request outlives: identical answers, each the one a
    lone ``solve_request`` gives — no solve reads state an earlier one, or
    an earlier failed attempt, left behind."""
    requests = request_mix(budgets=(24, 48))
    plan = ChaosPlan(
        seed=3, crash_rate=0.3, hang_rate=0.1, slow_rate=0.1, corrupt_rate=0.1,
        immune_after=2,
    )
    answers = []
    for chaos in (None, plan):
        tier = chaos_tier(chaos, policy())
        answers.append([
            (r.fingerprint, r.status, tuple(sorted(r.allocation.items())),
             r.objective)
            for r in run_requests(tier, requests)
        ])
    alone = [solve_request(r) for r in requests]
    assert answers[0] == answers[1] == [
        (o.fingerprint, o.status, tuple(sorted(o.allocation.items())), o.objective)
        for o in alone
    ]
    assert all(status == "optimal" for _, status, _, _ in answers[0])


def shard_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("hslb-")]


def test_direct_objectives_are_answered_on_the_event_loop(tracer):
    """A burst of all three objectives is answered on the event loop: no
    thread starts, no process forks, and every trace is the loop's own
    (no queue span)."""
    burst = request_mix(repeats=1)
    tier = chaos_tier(None)
    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())

    async def drive():
        async with tier:
            answers = await asyncio.gather(*(tier.submit(r) for r in burst))
            return (
                answers,
                set(threading.enumerate()) - threads,
                set(multiprocessing.active_children()) - children,
            )

    answers, new_threads, forked = asyncio.run(drive())
    assert all(r.ok and r.source == "exact" and r.iterations == 0 for r in answers)
    assert not new_threads and not forked and not shard_threads()
    for response in answers:
        (root,) = tracer.trace_roots(response.trace_id)
        names = {s.name for s, _ in root.walk()}
        assert "shard.solve" in names and "shard.queue" not in names


def test_mixed_objectives_under_chaos_book_each_fault_once():
    """Crash / hang / corrupt chaos over a tier serving all three
    objectives, interleaved: nothing is lost and every counter equals the
    faults dealt."""
    plan = ChaosPlan(
        seed=3, crash_rate=0.3, hang_rate=0.1, corrupt_rate=0.1, immune_after=2,
    )
    by_objective = {
        o: request_mix(budgets=(24, 28, 32, 36), repeats=1, objectives=(o,))
        for o in OBJECTIVES
    }
    requests = [r for trio in zip(*by_objective.values()) for r in trio]
    dealt = expected_faults(plan, prints(requests), max_attempts=3)
    for objective, mix in by_objective.items():
        hit = expected_faults(plan, prints(mix), max_attempts=3)
        assert all(hit[kind] for kind in ("crash", "hang", "corrupt")), objective
    tier = chaos_tier(plan, policy())
    responses = run_requests(tier, requests)
    assert len(responses) == len(requests)  # zero lost
    assert all(r.ok and r.source == "exact" for r in responses)
    assert [r.fingerprint for r in responses] == [r.fingerprint() for r in requests]
    resilience = tier.snapshot()["resilience"]
    assert resilience["worker_crashes"] == dealt["crash"]
    assert resilience["worker_hangs"] == dealt["hang"]
    assert resilience["corruptions"] == dealt["corrupt"]
    assert resilience["retries"] == sum(dealt.values())
    assert_nothing_corrupt_cached(tier, requests)


def test_nothing_sleeps_on_the_event_loop(monkeypatch):
    """Chaos over all three objectives with ``time.sleep`` raising on the
    loop thread: retries take no backoff and slow faults are booked, not
    slept, and every count is still the plan's."""
    loop_thread = threading.current_thread()  # run_requests runs its loop here
    real_sleep = time.sleep

    def sleep(seconds):
        if threading.current_thread() is loop_thread:
            raise AssertionError(f"slept {seconds} s on the event loop")
        real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", sleep)
    plan = ChaosPlan(
        seed=3, crash_rate=0.25, hang_rate=0.1, slow_rate=0.15,
        corrupt_rate=0.1, immune_after=2, slow_seconds=0.05,
    )
    requests = request_mix(budgets=(24, 28, 32, 36), repeats=1)
    dealt = expected_faults(plan, prints(requests), max_attempts=3)
    assert all(dealt[kind] for kind in ("crash", "hang", "slow", "corrupt"))
    tier = chaos_tier(plan, policy())
    responses = run_requests(tier, requests)
    assert len(responses) == len(requests)  # zero lost
    assert all(r.ok and r.source == "exact" for r in responses)
    resilience = tier.snapshot()["resilience"]
    assert resilience["worker_crashes"] == dealt["crash"]
    assert resilience["worker_hangs"] == dealt["hang"]
    assert resilience["corruptions"] == dealt["corrupt"]
    assert resilience["retries"] == dealt["crash"] + dealt["hang"] + dealt["corrupt"]


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


def test_scrape_equals_snapshot_equals_shard_views():
    """Once, in-process crashes and hangs never reached the scrape (0 / 0
    against a snapshot of 17 / 7).  Now a count has one home: family by
    family, the process scrape's delta, the tier's scope and the sum of its
    shards' scopes are the same numbers — under chaos, hits, a degraded
    answer, a shed and a refused batch."""
    plan = ChaosPlan(
        seed=3, crash_rate=0.3, hang_rate=0.1, corrupt_rate=0.1, immune_after=2,
    )
    storm = request_mix(
        families=1, budgets=(24, 28, 32, 36, 40, 44, 48, 52), repeats=1
    )
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
        plan, policy(), admission=AdmissionPolicy(max_pending=40, thresholds=always)
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
        assert resilience[key] == dealt[kind] == scrape[failures, (("kind", kind),)]
    assert resilience["corruptions"] == dealt["corrupt"]
    assert resilience["retries"] == sum(dealt.values())
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
