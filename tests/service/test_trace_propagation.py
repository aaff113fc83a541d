"""End-to-end trace propagation through the async tier (the acceptance bar).

Concurrent requests enter the tier, cross the admission gate and the
single-flight table, and are solved on the event loop; every response must
come back stamped with a ``trace_id`` that resolves to ONE well-nested tree
containing the admission, coalescing, shard and service spans.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import AsyncServingTier, TierConfig

from tests.service.conftest import hold_solves, make_request


def _submit_all(tier, requests, priority="interactive"):
    async def main():
        async with tier:
            return await asyncio.gather(
                *(tier.submit(r, priority=priority) for r in requests)
            )

    return asyncio.run(main())


def _names(root) -> set[str]:
    return {s.name for s, _ in root.walk()}


def _tags(root, name: str) -> dict:
    """Tags of the one span called ``name`` in the tree."""
    (found,) = [s for s, _ in root.walk() if s.name == name]
    return found.tags


def _assert_well_nested(root) -> None:
    """Every child's ids link to its parent, within one trace."""
    for parent, _ in root.walk():
        for child in parent.children:
            assert child.trace_id == root.trace_id
            assert child.parent_id == parent.span_id
            assert child.span_id != parent.span_id


@pytest.mark.parametrize("objective", ["min-max", "max-min", "min-sum"])
def test_every_objective_records_the_full_lifecycle(tracer, objective):
    tier = AsyncServingTier(TierConfig(shards=2))
    requests = [make_request(b, objective=objective) for b in (48, 64, 72)]
    for response in _submit_all(tier, requests):
        assert response.ok and response.trace_id
        (root,) = tracer.trace_roots(response.trace_id)
        names = _names(root)
        assert {"tier.submit", "tier.admission", "tier.coalesce",
                "shard.solve", "service.submit"} <= names
        _assert_well_nested(root)


def test_coalesced_riders_share_the_leader_trace_solve(tracer):
    """Identical concurrent requests: one solve, every caller traced.

    The solves are held in flight: one on the event loop completes inside
    the first ``submit``, so the followers would land on the cache instead
    of the in-flight table and nobody would ride.
    """
    tier = AsyncServingTier(TierConfig(shards=2))
    hold_solves(tier)
    responses = _submit_all(tier, [make_request(64)] * 4)
    assert all(r.ok for r in responses)
    roles = []
    for response in responses:
        (root,) = tracer.trace_roots(response.trace_id)
        flight = next(s for s, _ in root.walk() if s.name == "tier.coalesce")
        roles.append(flight.tags["role"])
    assert roles.count("leader") == 1
    assert roles.count("rider") == 3


def test_cache_hits_still_return_a_trace_id(tracer):
    tier = AsyncServingTier(TierConfig(shards=1))
    first = _submit_all(tier, [make_request(64)])[0]
    second = _submit_all(tier, [make_request(64)])[0]
    assert second.source == "cache"
    assert second.trace_id and second.trace_id != first.trace_id


def test_disabled_tracer_leaves_responses_unstamped():
    tier = AsyncServingTier(TierConfig(shards=1))
    response = _submit_all(tier, [make_request(64)])[0]
    assert response.ok and response.trace_id == ""
