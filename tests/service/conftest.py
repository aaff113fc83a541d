"""Shared request-building helpers for the service tests."""

from __future__ import annotations

import asyncio
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


def hold_solves(tier, seconds: float = 0.05) -> None:
    """Keep every solve of ``tier`` in flight for ``seconds`` before it runs.

    A solve finishes on the event loop before the next task runs, so the
    duplicates of a request would land on the cache instead of the flight
    table.  Each shard's ``solve`` is swapped for one that first awaits, so
    followers arrive while the leader is still in flight — the one way a
    rider, a pending count or a shed can be exercised.
    """
    for shard in tier.shards.values():
        solve = shard.solve

        async def held(request, _solve=solve):
            await asyncio.sleep(seconds)
            return await _solve(request)

        shard.solve = held


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
