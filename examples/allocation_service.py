#!/usr/bin/env python3
"""Allocation-as-a-service: the HSLB optimizer behind a cache.

An allocation *service* answers many overlapping "how do I split N nodes
across these components?" queries — think a scheduler asking for every
queued job size, or a capacity planner sweeping machine sizes.  This
example walks the three mechanisms the service stacks on the static
optimizer:

1. **fingerprint cache** — identical problems (any component order, any
   last-bit float noise) share one cache slot; hits are bit-identical to
   the solve that produced them and cost microseconds;
2. **no MINLP** — a request is one budget row over fitted curves, the
   family §III-E says "can be solved in polynomial time with customized
   solvers": every objective is answered directly and exactly by
   ``repro.core.greedy`` (the heap for min-max, the default; level sets
   for max-min; marginal gain for min-sum — 0 iterations, a fraction of a
   millisecond), from the request alone: every answer is the one a fresh
   solve would give;
3. **batches**           — ``run_requests`` answers a whole request list
   through the serving tier in one call: duplicates share one solve,
   answers come back in input order.

Usage:  python examples/allocation_service.py
"""

from repro.perf.model import PerformanceModel
from repro.service import (
    AllocationService,
    AsyncServingTier,
    ComponentSpec,
    SolveRequest,
    TierConfig,
    run_requests,
)

CURVES = {
    "atm": dict(a=1200.0, b=0.5, c=1.1, d=2.0),
    "ocn": dict(a=800.0, b=0.3, c=1.2, d=1.0),
    "ice": dict(a=300.0, b=0.2, c=1.0, d=0.5),
}


def request(total_nodes: int, objective: str = "min-max") -> SolveRequest:
    components = {
        name: ComponentSpec(model=PerformanceModel(**params))
        for name, params in CURVES.items()
    }
    return SolveRequest(
        components=components, total_nodes=total_nodes, objective=objective
    )


def main() -> None:
    service = AllocationService(cache_capacity=64)

    # -- 1. cache: the second identical query never reaches the solver ----
    first = service.submit(request(64))
    again = service.submit(request(64))
    print(f"first solve: {first.allocation}  T={first.objective:.2f}s  "
          f"({first.latency * 1e3:.1f} ms, {first.iterations} iterations: "
          f"min-max goes to the exact heap)")
    print(f"cache hit  : {again.allocation}  T={again.objective:.2f}s  "
          f"({again.latency * 1e3:.3f} ms, bit-identical: "
          f"{again.allocation == first.allocation and again.objective == first.objective})")

    # -- 2. min-sum by marginal gain, from the request alone -------------
    print()
    for nodes in (64, 72):
        solved = service.submit(request(nodes, "min-sum"))
        print(f"min-sum, {nodes} nodes: {solved.allocation}  "
              f"sum T={solved.objective:.2f}s  ({solved.latency * 1e3:.1f} ms, "
              f"{solved.iterations} iterations: marginal gain)")

    # -- 3. batch: a min-sum machine-size sweep with duplicates, one call --
    sweep = [request(n, "min-sum") for n in (48, 56, 64, 64, 80, 96, 96, 128)]
    tier = AsyncServingTier(TierConfig(shards=1))
    responses = run_requests(tier, sweep)
    print("\nmachine-size sweep (duplicates answered from cache):")
    for req, resp in zip(sweep, responses):
        tag = "hit " if resp.cached else "miss"
        print(f"  {req.total_nodes:4d} nodes  [{tag}]  {resp.allocation}  "
              f"T={resp.objective:.2f}s")

    print()
    print(service.metrics.render())
    snap = tier.snapshot()
    print(f"sweep tier: {snap['cold_solves']} solves, {snap['cache_hits']} "
          f"cache hits for {len(sweep)} requests")


if __name__ == "__main__":
    main()
