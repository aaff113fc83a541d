"""Allocation-service benchmark: cache correctness on a Zipf mix.

Real allocation traffic is heavy-tailed — a handful of production
configurations (same fitted curves, same machine size) dominate the request
stream, with a long tail of one-off what-ifs.  We model it as Zipf-weighted
draws over a pool of distinct requests (three curve families x several node
budgets, min-sum) and pin the service-layer claims that do not depend on
the clock:

* **S1 hit rate** — the mix's 10 distinct requests in 60 draws are answered
  with a nonzero (and pinned) cache hit rate;
* **S2 bit-identity** — replaying the distinct-request sequence through a
  fresh service reproduces every cached answer exactly (allocation and
  objective), because no solve draws a random number.

Its wall-clock records (service against fresh throughput, latency) timed a
min-sum miss that built a MINLP; every request is now answered by
``core.greedy`` in a fraction of a millisecond, so they measured a path
that is gone and were dropped.  Wall-clock on the default traffic is the
end-to-end ledger's (``benchmarks/e2e``, ``serve_hot`` / ``serve_flash``).
"""

from __future__ import annotations

import json
import os
import pathlib

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
    responses = [service.submit(r) for r in mix]
    fresh = [solve_request(r) for r in mix]

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

    return {
        "n_draws": n_draws,
        "distinct": len(seen),
        "hit_rate": service.metrics.hit_rate,
        "replay_mismatches": mismatches,
        "all_ok": all(r.ok for r in responses)
        and all(f.allocation for f in fresh),
    }


def render(result: dict) -> str:
    lines = [
        "allocation service on a Zipf request mix",
        f"  draws / distinct     : {result['n_draws']} / {result['distinct']}",
        f"  cache hit rate       : {result['hit_rate']:.1%}",
        f"  replay mismatches    : {result['replay_mismatches']}",
    ]
    return "\n".join(lines)


_RECORDS = {
    "service_hit_rate": "hit_rate",
    "service_replay_mismatches": "replay_mismatches",
    "service_distinct": "distinct",
}


def _save_records(result: dict, host: dict) -> None:
    """Persist gate-schema records as BENCH_service.json.

    Same ``{name: {mean, ...}}`` shape as the solver/dynlb baselines, so
    ``check_bench.py`` can diff them; every record is deterministic, one
    round, and ``_host`` says where.  ``HSLB_BENCH_SERVICE_OUT`` points the
    writer at a scratch file.
    """
    out: dict = {"_host": host}
    for name, key in _RECORDS.items():
        v = float(result[key])
        out[name] = {"min": v, "max": v, "mean": v, "stddev": 0.0, "rounds": 1}
    override = os.environ.get("HSLB_BENCH_SERVICE_OUT")
    if override:
        path = pathlib.Path(override)
    else:
        path = pathlib.Path(__file__).parent / "out" / "BENCH_service.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"[baseline saved to {path}]")


def test_s1_service_cache(benchmark, save_report, host_record):
    result = benchmark.pedantic(run_service_benchmark, rounds=1, iterations=1)
    save_report("service_cache", render(result))
    _save_records(result, host_record)
    assert result["all_ok"]
    assert result["hit_rate"] > 0.0
    # S2: cached answers are bit-identical to fresh solves of the same
    # request sequence by an identical service.
    assert result["replay_mismatches"] == 0
