#!/usr/bin/env python3
"""Crash-and-recover: the resilient serving tier under injected faults.

The plain :class:`AllocationService` assumes solves finish.  In a real
deployment workers crash mid-solve, hang past any reasonable budget, and
occasionally return garbage.  This example walks the resilience stack:

1. **retries** — a crashed solve is re-dispatched (solves are
   fingerprint-seeded and idempotent) with deterministic backoff;
2. **degradation ladder** — when exact solving is unavailable the request
   walks explicit rungs: stale cache entry (age attached) -> greedy
   approximation -> typed rejection; every answer carries its ``source``;
3. **circuit breaker** — a request family that keeps killing workers is
   short-circuited straight to the ladder instead of burning more workers;
4. **supervised workers** — the serving tier in process mode: a real
   worker process killed mid-solve is contained to its shard, replaced
   under a restart budget, and the victim request re-dispatched — without
   restarting the service.  (Min-sum requests: only what builds a MINLP is
   shipped to a worker; min-max / max-min are answered on the shard thread.)

Usage:  python examples/resilient_service.py
"""

from repro.faults import ChaosPlan
from repro.perf.model import PerformanceModel
from repro.service import (
    AllocationService,
    AsyncServingTier,
    ComponentSpec,
    ResiliencePolicy,
    RetryPolicy,
    SolveRequest,
    TierConfig,
    run_requests,
)

CURVES = {
    "atm": dict(a=1200.0, b=0.5, c=1.1, d=2.0),
    "ocn": dict(a=800.0, b=0.3, c=1.2, d=1.0),
    "ice": dict(a=300.0, b=0.2, c=1.0, d=0.5),
}


def request(total_nodes: int, **kwargs) -> SolveRequest:
    components = {
        name: ComponentSpec(model=PerformanceModel(**params))
        for name, params in CURVES.items()
    }
    return SolveRequest(components=components, total_nodes=total_nodes, **kwargs)


def show(label: str, response) -> None:
    extra = ""
    if response.source == "stale":
        extra = f", age {response.staleness:.0f}s"
    print(
        f"{label:22s} source={response.source:<7s} "
        f"T={response.objective:.2f}s  {dict(sorted(response.allocation.items()))}"
        f"{extra}"
    )


def main() -> None:
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        max_stale=3600.0,
        restart_budget=8,
    )

    # -- 1. retries: every first attempt crashes, every retry lands -------
    print("== retries: first attempt always crashes, retry recovers ==")
    flaky = AllocationService(
        resilience=policy,
        chaos=ChaosPlan(seed=11, crash_rate=0.95, immune_after=1),
    )
    show("crash -> retry", flaky.submit(request(64)))
    print(f"retries spent: {flaky.metrics.retries}, "
          f"crashes seen: {flaky.metrics.worker_crashes}")

    # -- 2. the degradation ladder ----------------------------------------
    print("\n== degradation ladder: when exact solving is gone ==")
    clock = {"now": 0.0}
    service = AllocationService(
        ttl=600.0, clock=lambda: clock["now"], resilience=policy
    )
    show("exact", service.submit(request(64)))

    clock["now"] += 1800.0  # the cached answer is now 30 minutes stale
    dead_chaos = ChaosPlan(seed=0, crash_rate=0.97)  # no attempt survives
    from repro.faults.chaos import chaotic_solve
    from repro.service.solver import solve_request

    service._solve = chaotic_solve(dead_chaos, solve_request)
    show("stale rung", service.submit(request(64)))
    show("greedy rung", service.submit(request(96)))  # nothing cached

    # -- 3. breaker: the family is short-circuited after the failures -----
    service.submit(request(48))  # third failed family member: breaker opens
    state = service.breaker.state(request(48).family_key())
    blocked = service.submit(request(40))  # blocked before any solve attempt
    show(f"breaker {state}", blocked)
    print(f"degraded answers: stale={service.metrics.degraded_stale} "
          f"greedy={service.metrics.degraded_greedy} "
          f"breaker blocks={service.metrics.breaker_blocks}")

    # -- 4. supervised workers: a real worker death, recovered ------------
    print("\n== supervised workers: real worker crashes, batch recovers ==")
    tier = AsyncServingTier(
        TierConfig(
            shards=2,
            worker_mode="process",
            resilience=policy,
            chaos=ChaosPlan(seed=5, crash_rate=0.9, immune_after=1),
        )
    )
    responses = run_requests(
        tier,
        [request(n, objective="min-sum") for n in (24, 32, 40, 56)],
        deadline=30.0,
    )
    for r in responses:
        show("recovered batch", r)
    m = tier.snapshot()["resilience"]
    print(f"worker crashes: {m['worker_crashes']}, replacements: "
          f"{m['worker_restarts']}, all answered: {len(responses) == 4}")


if __name__ == "__main__":
    main()
