"""Async serving tier benchmark: a keyed trace replayed as one burst.

The :class:`AsyncServingTier` (4 consistent-hash shards, single-flight
coalescing, every solve on the event loop) answers a keyed
Zipf/diurnal/flash trace, so two runs see bit-identical traffic.

What this bench pins are the structural guarantees, asserted
unconditionally: zero lost requests, every answer accounted and exact, and
deduplication — one solve per distinct request, every duplicate answered by
a rider of its flight or by a cache hit.  The capacity is three times the
burst so that no priority class reaches its degrade threshold.  Its
wall-clock records (tier throughput, p50/p99/p999) timed min-sum requests
shipped to worker processes, a path that is gone, and were dropped;
wall-clock is the end-to-end ledger's job (``benchmarks/e2e``, workload
``serve_flash``).

The artifact is ``benchmarks/out/BENCH_asyncserve.json``: the
deterministic accounting records the CI gate pins exactly.
``HSLB_BENCH_ASYNCSERVE_OUT`` overrides the output path (the gate writes
a fresh file there rather than clobbering the committed baseline).
"""

import json
import os
import pathlib

import pytest

from repro.service.admission import AdmissionPolicy
from repro.service.frontend import AsyncServingTier, TierConfig
from repro.service.loadgen import TraceSpec, generate_trace, replay

#: The canonical serving scenario: 12 curve families x 4 node budgets under
#: a Zipf-1.1 popularity law, one diurnal cycle, two flash crowds — enough
#: distinct solves (48) that parallel shards matter, enough duplication
#: (600 events) that coalescing and caching matter.
_SPEC = TraceSpec(
    n_requests=600,
    seed=20120427,
    n_families=12,
    budgets=(48, 64, 72, 96),
    duration=30.0,
    flash_crowds=2,
)

_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _asyncserve_baseline(host_record):
    """Persist the records as BENCH_asyncserve.json (dynlb conventions)."""
    yield
    out = {}
    for name, value in sorted(_RESULTS.items()):
        v = float(value)
        out[f"asyncserve_{name}"] = {
            "min": v, "max": v, "mean": v, "stddev": 0.0, "rounds": 1,
        }
    if not out:
        return
    out["_host"] = host_record
    override = os.environ.get("HSLB_BENCH_ASYNCSERVE_OUT")
    if override:
        path = pathlib.Path(override)
    else:
        path = pathlib.Path(__file__).parent / "out" / "BENCH_asyncserve.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"[baseline saved to {path}]")


def test_asyncserve_tier_replay(benchmark, host_record):
    """The sharded async tier under a duplicate-heavy burst: nothing lost."""
    trace = generate_trace(_SPEC)
    distinct = len({event.request.fingerprint() for event in trace})

    def serve():
        tier = AsyncServingTier(
            TierConfig(admission=AdmissionPolicy(max_pending=3 * len(trace)))
        )
        return replay(tier, trace, speed=0.0), tier.snapshot()

    report, tier_snap = benchmark.pedantic(serve, rounds=1, iterations=1)
    snap = report.snapshot()

    # Accounting invariants: every event answered exactly, none lost, shed
    # or degraded.
    assert snap["lost"] == 0
    assert snap["shed"] == 0
    assert snap["errors"] == 0
    assert snap["answered"] == _SPEC.n_requests
    assert set(snap["sources"]) <= {"exact", "cache"}
    # Deduplication: one solve per distinct request, and every duplicate
    # answered by riding its flight or from the cache.
    duplicates = _SPEC.n_requests - distinct
    deduplicated = snap["coalesce"]["riders"] + tier_snap["cache_hits"]
    assert tier_snap["cold_solves"] == distinct
    assert deduplicated == duplicates

    _RESULTS.update(
        lost_requests=snap["lost"],
        answered=snap["answered"],
        dedup_rate=deduplicated / duplicates,
    )
    benchmark.extra_info["coalesce_rate"] = snap["coalesce"]["coalesce_rate"]
    benchmark.extra_info["sources"] = snap["sources"]
