"""Allocation-service benchmark: throughput and correctness on a Zipf mix.

Real allocation traffic is heavy-tailed — a handful of production
configurations (same fitted curves, same machine size) dominate the request
stream, with a long tail of one-off what-ifs.  We model it as Zipf-weighted
draws over a pool of distinct requests (three curve families x several node
budgets) and pin the service-layer claims.

The pool is ``min-sum``: the one objective whose cache miss still builds a
MINLP (~8 ms), so the one on which the cache and bit-identical replay of a
tree search have anything to show.  Min-max and max-min misses are answered
directly by ``core.greedy`` in ~0.2 ms (the same mix then reads ~2.3x, 60
requests in 4 ms); their wall-clock is the end-to-end ledger's
(``benchmarks/e2e``, ``serve_hot`` / ``serve_flash``).

* **S1 throughput** — answering the mix through the service is >= 3.5x
  faster than solving every request fresh, as the mean of five rounds (the
  mix's 10 distinct requests in 60 draws cap it at 6x; single rounds read
  4.2-5.8x on a shared 2-core host), and the cache hit rate is nonzero;
* **S2 bit-identity** — replaying the distinct-request sequence through a
  fresh service reproduces every cached answer exactly (allocation and
  objective), because no solve draws a random number;
* **S3 warm starts — deleted with the chain they measured.**  Seeding a
  min-sum solve from the nearest cached sibling budget, and carrying OA
  cuts from one solve of a family to the next, did not pay.  Measured on
  the end-to-end ledger's 48-request pool switched to min-sum, through one
  service, median of 5 repetitions, ``OPENBLAS_NUM_THREADS=1``, 2-vCPU
  x86_64 host; requests in rank order / grouped by family (budget
  ascending, the donor chain's best case):

  ============================  ===============  =================
  configuration                 median wall      solver iterations
  ============================  ===============  =================
  donor pool + cut sharing      392 / 418 ms     421 / 465
  donor pool only               362 / 377 ms     436 / 469
  cut sharing only              379 / 375 ms     393 / 395
  neither (the only one left)   348 / 338 ms     405 / 405
  ============================  ===============  =================

  and no answer differed from a cold ``solve_request`` in any of them.
  S3 itself read 82 warm iterations against 68 cold (0.77x).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

import numpy as np

from repro.perf.model import PerformanceModel
from repro.service import AllocationService, ComponentSpec, SolveRequest, solve_request
from repro.util.rng import default_rng

#: Three curve families: CESM-ish coupled components at different scales.
FAMILIES = {
    "coupled-small": {
        "atm": dict(a=1200.0, b=0.5, c=1.1, d=2.0),
        "ocn": dict(a=800.0, b=0.3, c=1.2, d=1.0),
        "ice": dict(a=300.0, b=0.2, c=1.0, d=0.5),
    },
    "coupled-large": {
        "atm": dict(a=9600.0, b=0.8, c=1.1, d=4.0),
        "ocn": dict(a=6400.0, b=0.5, c=1.2, d=2.0),
        "ice": dict(a=2400.0, b=0.3, c=1.0, d=1.0),
    },
    "two-component": {
        "frag": dict(a=2000.0, b=0.4, c=1.1, d=1.0),
        "esp": dict(a=500.0, b=0.1, c=1.0, d=0.5),
    },
}
BUDGETS = (48, 64, 72, 96)
N_DRAWS = 60
ZIPF_EXPONENT = 1.1


def request_pool() -> list[SolveRequest]:
    pool = []
    for curves in FAMILIES.values():
        components = {
            name: ComponentSpec(model=PerformanceModel(**params))
            for name, params in curves.items()
        }
        for budget in BUDGETS:
            pool.append(
                SolveRequest(
                    components=components, total_nodes=budget, objective="min-sum"
                )
            )
    return pool


def zipf_mix(pool: list[SolveRequest], n_draws: int = N_DRAWS) -> list[SolveRequest]:
    """Zipf-weighted draws: rank-r request drawn with weight 1/r^s."""
    rng = default_rng(7)
    weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    return [pool[i] for i in rng.choice(len(pool), size=n_draws, p=weights)]


def run_service_benchmark(n_draws: int = N_DRAWS) -> dict:
    mix = zipf_mix(request_pool(), n_draws)

    service = AllocationService()
    t0 = time.perf_counter()
    responses = [service.submit(r) for r in mix]
    service_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    fresh = [solve_request(r) for r in mix]
    fresh_time = time.perf_counter() - t0

    # Replay the distinct-request sequence (first occurrences, in order)
    # through a brand-new service: cached answers must be bit-identical.
    seen: dict[str, SolveRequest] = {}
    for r in mix:
        seen.setdefault(r.fingerprint(), r)
    replay = AllocationService()
    mismatches = 0
    for fp, r in seen.items():
        again = replay.submit(r)
        stored = service.cache.peek(fp)
        if stored is None:
            continue  # evicted (capacity is far above the pool size here)
        if again.allocation != stored.allocation or again.objective != stored.objective:
            mismatches += 1

    snap = service.metrics.snapshot()
    return {
        "n_draws": n_draws,
        "distinct": len(seen),
        "service_time": service_time,
        "fresh_time": fresh_time,
        "speedup": fresh_time / service_time,
        "throughput_rps": n_draws / service_time,
        "hit_rate": snap["hit_rate"],
        "mean_latency": snap["latency"]["mean"],
        "p95_latency": snap["latency"]["p95"],
        "replay_mismatches": mismatches,
        "all_ok": all(r.ok for r in responses)
        and all(f.allocation for f in fresh),
    }


def render(result: dict) -> str:
    lines = [
        "allocation service on a Zipf request mix",
        f"  draws / distinct     : {result['n_draws']} / {result['distinct']}",
        f"  fresh solve time     : {result['fresh_time']:.2f}s",
        f"  service time         : {result['service_time']:.2f}s",
        f"  throughput speedup   : {result['speedup']:.1f}x",
        f"  cache hit rate       : {result['hit_rate']:.1%}",
        f"  replay mismatches    : {result['replay_mismatches']}",
    ]
    return "\n".join(lines)


_RECORDS = {
    "service_throughput_rps": "throughput_rps",
    "service_speedup": "speedup",
    "service_hit_rate": "hit_rate",
    "service_replay_mismatches": "replay_mismatches",
    "service_mean_latency": "mean_latency",
    "service_p95_latency": "p95_latency",
    "service_distinct": "distinct",
}


def _save_records(results: list[dict], host: dict) -> None:
    """Persist gate-schema records as BENCH_service.json.

    Same ``{name: {mean, ...}}`` shape as the solver/dynlb baselines, so
    ``check_bench.py`` can diff throughput-flavoured records (gated in the
    "higher is better" direction) alongside the wall-time ones; each record
    is the statistics of its value over the rounds run, and ``_host`` says
    where.  ``HSLB_BENCH_SERVICE_OUT`` points the writer at a scratch file.
    """
    out: dict = {"_host": host}
    for name, key in _RECORDS.items():
        values = [float(result[key]) for result in results]
        out[name] = {
            "min": min(values),
            "max": max(values),
            "mean": statistics.fmean(values),
            "stddev": statistics.pstdev(values),
            "rounds": len(values),
        }
    override = os.environ.get("HSLB_BENCH_SERVICE_OUT")
    if override:
        path = pathlib.Path(override)
    else:
        path = pathlib.Path(__file__).parent / "out" / "BENCH_service.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"[baseline saved to {path}]")


def test_s1_service_throughput(benchmark, save_report, host_record):
    # The first MINLP solve of a process imports scipy (~0.4 s, once): load it
    # outside the timed rounds, which compare cached against fresh solves.
    solve_request(request_pool()[0])
    results: list[dict] = []
    benchmark.pedantic(
        lambda: results.append(run_service_benchmark()), rounds=5, iterations=1
    )
    save_report("service_throughput", render(results[-1]))
    _save_records(results, host_record)
    # The headline service claim: >= 3.5x throughput on the Zipf mix.
    speedup = statistics.fmean(result["speedup"] for result in results)
    assert speedup >= 3.5, f"only {speedup:.1f}x"
    for result in results:
        assert result["all_ok"]
        assert result["hit_rate"] > 0.0
        # S2: cached answers are bit-identical to fresh solves of the same
        # request sequence by an identical service.
        assert result["replay_mismatches"] == 0

