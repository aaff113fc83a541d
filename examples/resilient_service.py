#!/usr/bin/env python3
"""Crash-and-recover: the resilient serving tier under injected faults.

The plain :class:`AllocationService` assumes solves finish.  A
:class:`~repro.faults.chaos.ChaosPlan` makes them crash, hang, come back
slow or return garbage — typed, in-process, seeded — and this example walks
the resilience stack that absorbs it:

1. **retries** — a crashed solve is run again at once (solves are
   fingerprint-seeded and idempotent);
2. **degradation ladder** — when exact solving is unavailable the request
   walks explicit rungs: stale cache entry (age attached) -> greedy
   approximation -> typed rejection; every answer carries its ``source``;
3. **circuit breaker** — a request family whose solves keep dying is
   short-circuited straight to the ladder instead of burning more retries;
4. **the serving tier** — a sharded batch of all three objectives under a
   crash storm: every request is retried to an exact answer, none is lost.

Usage:  python examples/resilient_service.py
"""

from repro.faults.chaos import ChaosPlan
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
        retry=RetryPolicy(max_attempts=3),
        max_stale=3600.0,
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

    # -- 4. the serving tier: a crash storm over all three objectives -----
    print("\n== serving tier: crashed solves retried, batch recovers ==")
    tier = AsyncServingTier(
        TierConfig(
            shards=2,
            resilience=policy,
            chaos=ChaosPlan(seed=5, crash_rate=0.9, immune_after=1),
        )
    )
    batch = [
        request(n, objective=objective)
        for objective in ("min-max", "max-min", "min-sum")
        for n in (24, 40)
    ]
    responses = run_requests(tier, batch)
    for r in responses:
        show("recovered batch", r)
    m = tier.snapshot()["resilience"]
    print(f"crashes: {m['worker_crashes']}, retries: {m['retries']}, "
          f"all answered: {len(responses) == len(batch)}")


if __name__ == "__main__":
    main()
