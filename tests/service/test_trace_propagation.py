"""End-to-end trace propagation through the async tier (the acceptance bar).

Concurrent requests enter the tier, cross the admission gate, the
single-flight table, and — for a request that builds a MINLP — a shard
queue and, in process mode, a genuine process boundary into the worker
that solves; every response must come
back stamped with a ``trace_id`` that resolves, in the parent tracer, to
ONE well-nested tree containing the admission, shard, and in-worker solve
spans.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import AsyncServingTier, TierConfig

from tests.service.conftest import hold_solves, make_minlp_request, make_request


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


@pytest.mark.parametrize("worker_mode", ["inline", "thread"])
def test_in_process_modes_record_full_lifecycle(tracer, worker_mode):
    tier = AsyncServingTier(TierConfig(shards=2, worker_mode=worker_mode))
    responses = _submit_all(tier, [make_request(b) for b in (48, 64, 72)])
    for response in responses:
        assert response.ok and response.trace_id
        (root,) = tracer.trace_roots(response.trace_id)
        names = _names(root)
        assert {"tier.submit", "tier.admission", "tier.coalesce",
                "shard.solve"} <= names
        assert _tags(root, "service.submit")["ran"] == "shard"
        _assert_well_nested(root)


def test_process_mode_stitches_worker_spans(tracer):
    """N concurrent requests, 2 shards, real worker processes.

    Each response's trace_id must resolve to a single tree whose spans
    cover admission wait, the shard hop, and the *in-worker* solve — the
    worker-side spans are recorded in another process and grafted back.
    """
    tier = AsyncServingTier(TierConfig(shards=2, worker_mode="process"))
    # Min-sum: what a process-mode shard ships (it builds a MINLP).
    requests = [make_minlp_request(b) for b in (48, 64, 72, 96)]
    responses = _submit_all(tier, requests)
    assert all(r.ok for r in responses)
    trace_ids = [r.trace_id for r in responses]
    assert all(trace_ids)
    assert len(set(trace_ids)) == len(requests)  # distinct requests: own trees
    for response in responses:
        roots = tracer.trace_roots(response.trace_id)
        assert len(roots) == 1, "one request must resolve to one tree"
        (root,) = roots
        names = _names(root)
        assert {
            "tier.submit",
            "tier.admission",
            "tier.coalesce",
            "shard.queue",
            "shard.solve",
            "worker.solve",
        } <= names
        _assert_well_nested(root)
        # The worker's own solve span is nested under the shard dispatch.
        worker = next(s for s, _ in root.walk() if s.name == "worker.solve")
        assert worker.tags["pid"] != root.span_id.split("-")[0]
        assert _tags(root, "service.submit")["ran"] == "worker"
        assert _tags(root, "shard.solve")["mode"] == "process"


def test_process_mode_answers_direct_objectives_on_the_event_loop(tracer):
    """``ran`` says which process the solve ran in, ``mode`` how the tier is
    configured: a min-max / max-min request in a process-mode tier is
    ``ran="shard"`` under ``mode="process"``, answered on the event loop —
    no queue span (no hop to the shard's thread), no worker span."""
    tier = AsyncServingTier(TierConfig(shards=2, worker_mode="process"))
    requests = [make_request(64), make_request(64, objective="max-min")]
    for response in _submit_all(tier, requests):
        assert response.ok and response.trace_id
        (root,) = tracer.trace_roots(response.trace_id)
        assert not {"shard.queue", "worker.solve"} & _names(root)
        assert _tags(root, "service.submit")["ran"] == "shard"
        assert _tags(root, "shard.solve")["mode"] == "process"
        _assert_well_nested(root)


def test_coalesced_riders_share_the_leader_trace_solve(tracer):
    """Identical concurrent requests: one solve, every caller traced.

    Thread mode, not inline: an inline solve completes synchronously
    inside the first ``submit``, so the followers would land on the cache
    instead of the in-flight table and nobody would ride.  Min-sum, not the
    default objective: a direct (sub-millisecond) solve can be admitted to
    the cache before the followers have looked.
    """
    tier = AsyncServingTier(TierConfig(shards=2, worker_mode="thread"))
    hold_solves(tier)
    responses = _submit_all(tier, [make_minlp_request(64)] * 4)
    assert all(r.ok for r in responses)
    roles = []
    for response in responses:
        (root,) = tracer.trace_roots(response.trace_id)
        flight = next(s for s, _ in root.walk() if s.name == "tier.coalesce")
        roles.append(flight.tags["role"])
    assert roles.count("leader") == 1
    assert roles.count("rider") == 3


def test_cache_hits_still_return_a_trace_id(tracer):
    tier = AsyncServingTier(TierConfig(shards=1, worker_mode="inline"))
    first = _submit_all(tier, [make_request(64)])[0]
    second = _submit_all(tier, [make_request(64)])[0]
    assert second.source == "cache"
    assert second.trace_id and second.trace_id != first.trace_id


def test_disabled_tracer_leaves_responses_unstamped():
    tier = AsyncServingTier(TierConfig(shards=1, worker_mode="inline"))
    response = _submit_all(tier, [make_request(64)])[0]
    assert response.ok and response.trace_id == ""
