"""Shared request-building helpers for the service tests."""

from __future__ import annotations

import time
from collections import Counter

import pytest

from repro.perf.model import PerformanceModel
from repro.service import ComponentSpec, SolveRequest

#: A CESM-flavored three-component curve set, reused across the suite.
CURVES = {
    "atm": dict(a=1200.0, b=0.5, c=1.1, d=2.0),
    "ocn": dict(a=800.0, b=0.3, c=1.2, d=1.0),
    "ice": dict(a=300.0, b=0.2, c=1.0, d=0.5),
}


def make_request(
    total_nodes: int = 64,
    curves: dict | None = None,
    **kwargs,
) -> SolveRequest:
    components = {
        name: ComponentSpec(model=PerformanceModel(**params))
        for name, params in (curves or CURVES).items()
    }
    return SolveRequest(components=components, total_nodes=total_nodes, **kwargs)


def make_minlp_request(total_nodes: int = 64, **kwargs) -> SolveRequest:
    """A request of the one objective that still builds a MINLP.

    Min-max (the default) and max-min are answered directly by
    ``repro.core.greedy`` — sub-millisecond, no iterations, nothing a
    deadline can cut short — so tests of solver deadlines, worker shipping
    and anything that needs a solve to still be in flight drive min-sum.
    """
    return make_request(total_nodes, objective="min-sum", **kwargs)


def hold_solves(tier, seconds: float = 0.05) -> None:
    """Keep every solve of ``tier`` in flight for ``seconds`` before it runs.

    A shard thread's first solve can finish inside one GIL switch interval
    (5 ms) — before the event loop has looked at the duplicates queued behind
    it, which then land on the cache instead of the flight table.  Tests that
    assert on riders sleep the worker (GIL released) so the followers always
    arrive while the leader is still solving.
    """
    for shard in tier.shards.values():
        solve = shard.service._solve

        def held(request, _solve=solve, **kwargs):
            time.sleep(seconds)
            return _solve(request, **kwargs)

        shard.service._solve = held


def dispatched(tier) -> list[int]:
    """Tasks each process-mode shard's one worker was ever handed: ``0``
    means nothing was shipped to it (and so no worker was forked for it)."""
    return [
        shard.service.pool.snapshot()["workers"][0]["dispatched"]
        for shard in tier.shards.values()
    ]


def expected_faults(plan, fingerprints, max_attempts: int) -> Counter:
    """Faults ``plan`` deals to each distinct solve's attempt chain until one
    attempt lands — a clean or merely slow one — or ``max_attempts`` are
    spent."""
    dealt: Counter = Counter()
    for fp in set(fingerprints):
        for attempt in range(max_attempts):
            kind = plan.fault(fp, attempt)
            if kind is not None:
                dealt[kind] += 1
            if kind in (None, "slow"):
                break
    return dealt


@pytest.fixture
def request64() -> SolveRequest:
    return make_request(64)


@pytest.fixture
def minlp64() -> SolveRequest:
    return make_minlp_request(64)
