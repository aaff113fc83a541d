"""Dynamic-rebalancing benchmark: static vs. dynamic vs. two-level hybrid.

The artifact is ``benchmarks/out/BENCH_dynlb.json`` (same schema as
``BENCH_solver_micro.json``): wall-time records for the benchmark runs
plus *deterministic* quality records — ``dynlb_total_<strategy>`` is each
strategy's simulated run time in seconds under the canonical drift
scenario, bit-identical across runs because every workload draw is keyed
by seed.  ``make dynlb-bench`` diffs a fresh file against the committed
baseline through ``check_bench.py``, so a change that erodes the dynamic
strategies' advantage fails the gate instead of slipping by as noise.

``HSLB_BENCH_DYNLB_OUT`` overrides the output path (the gate writes a
fresh file there rather than clobbering the baseline).
"""

import json
import os
import pathlib

import pytest

from repro.dynlb import cesm_workload, compare_strategies, fmo_workload
from repro.faults.plan import FaultPlan

#: The canonical comparison scenario: CESM 1-degree, the atmosphere drifting
#: +80% over the run while the other components ease off — the regime where
#: a frozen static plan decays and rebalancing pays.
_SCENARIO = dict(total_nodes=96, steps=40, drift="linear", drift_rate=0.8, seed=7)
_INTERVAL = 8

_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _dynlb_baseline(request):
    """Persist timings + deterministic totals as BENCH_dynlb.json.

    Mirrors ``bench_solver_micro``'s baseline fixture: pytest-benchmark
    wall-time records are harvested defensively (informational — the
    simulation is CPU-bound solver work and noisy on shared runners),
    while the ``dynlb_total_*`` records carry the *simulated* seconds,
    which are deterministic and therefore gateable.
    """
    yield
    out = {}
    session = getattr(request.config, "_benchmarksession", None)
    if session is not None:
        for bench in getattr(session, "benchmarks", []):
            if "bench_dynlb" not in str(getattr(bench, "fullname", "")):
                continue
            stats = getattr(bench, "stats", None)
            stats = getattr(stats, "stats", stats)  # unwrap Metadata -> Stats
            record = {}
            for key in ("min", "max", "mean", "stddev", "rounds"):
                value = getattr(stats, key, None)
                if value is not None:
                    record[key] = float(value)
            if record:
                out[getattr(bench, "name", "bench")] = record
    for strategy, result in sorted(_RESULTS.items()):
        t = float(result.total_seconds)
        out[f"dynlb_total_{strategy}"] = {
            "min": t, "max": t, "mean": t, "stddev": 0.0, "rounds": 1,
        }
    if not out:
        return
    override = os.environ.get("HSLB_BENCH_DYNLB_OUT")
    if override:
        path = pathlib.Path(override)
    else:
        path = pathlib.Path(__file__).parent / "out" / "BENCH_dynlb.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"[baseline saved to {path}]")


def test_dynlb_strategy_comparison(benchmark):
    """All five strategies over identical drift; dynamic must beat static."""
    workload = cesm_workload(**_SCENARIO)

    results = benchmark.pedantic(
        lambda: compare_strategies(workload, interval=_INTERVAL), rounds=1, iterations=1
    )
    _RESULTS.update(results)

    static = results["static"].total_seconds
    for name in ("hslb", "diffusion", "sweep", "two-level"):
        assert results[name].total_seconds < static, (
            f"{name} ({results[name].total_seconds:.0f}s) failed to beat the "
            f"frozen static plan ({static:.0f}s)"
        )
        assert results[name].migrations >= 1
    # The two-level hybrid also smooths intra-component imbalance, so it
    # must beat the single-level exact re-solve (the heap) it extends.
    assert results["two-level"].total_seconds < results["hslb"].total_seconds
    benchmark.extra_info["vs_static_pct"] = {
        name: round(100.0 * (static - r.total_seconds) / static, 2)
        for name, r in results.items()
    }


def test_dynlb_crash_recovery(benchmark):
    """Crash smoke: mid-run node loss leaves every strategy consistent."""
    plan = FaultPlan(seed=7, crash_step=13)
    workload = fmo_workload(
        fragments=6, total_nodes=64, steps=26, drift="step", seed=7, faults=plan
    )

    results = benchmark.pedantic(
        lambda: compare_strategies(workload, ("static", "hslb"), interval=_INTERVAL),
        rounds=1,
        iterations=1,
    )
    for result in results.values():
        assert result.crash is not None
        survivors = workload.total_nodes - result.crash.lost_nodes
        assert sum(result.final_allocation.values()) <= survivors
        assert set(result.final_allocation) == set(workload.components)
