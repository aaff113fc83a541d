"""The async serving tier: routing, coalescing, admission, transports."""

from __future__ import annotations

import asyncio
import io
import json
import os
import queue
import sys
import threading
import time

import pytest

from repro.service import (
    AdmissionPolicy,
    AsyncServingTier,
    ClassThresholds,
    TierConfig,
    run_requests,
    serve_stdio,
    solve_request,
)

from tests.service.conftest import (
    dispatched,
    hold_solves,
    make_minlp_request,
    make_request,
)

#: A second curve family, so routing tests have two distinct family keys.
OTHER_CURVES = {
    "frag": dict(a=2000.0, b=0.4, c=1.1, d=1.0),
    "esp": dict(a=500.0, b=0.1, c=1.0, d=0.5),
}


def _tier(**overrides) -> AsyncServingTier:
    overrides.setdefault("worker_mode", "inline")
    overrides.setdefault("shards", 4)
    return AsyncServingTier(TierConfig(**overrides))


# -- configuration ------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TierConfig(shards=0)
    with pytest.raises(ValueError):
        TierConfig(worker_mode="quantum")


def test_for_host_matches_the_core_budget():
    # One core: forking a worker buys no parallelism, so the derived mode
    # is in-process threads.
    assert TierConfig.for_host(1).worker_mode == "thread"
    assert TierConfig.for_host(8).worker_mode == "process"
    # Explicit overrides always win over the derived fields.
    assert TierConfig.for_host(8, worker_mode="inline").worker_mode == "inline"
    assert TierConfig.for_host().worker_mode in ("thread", "process")


# -- routing ------------------------------------------------------------------


def test_all_budgets_of_a_family_share_a_shard():
    tier = _tier()
    owners = {tier.route(make_request(b)) for b in (48, 64, 72, 96)}
    assert len(owners) == 1  # family key excludes the budget


def test_distinct_families_can_land_apart():
    tier = _tier(shards=8)
    a = tier.route(make_request(64))
    b = tier.route(make_request(64, curves=OTHER_CURVES))
    # Not guaranteed for any 2 keys on any ring, but pinned here for this
    # ring so a routing regression (everything on shard 0) gets caught.
    assert a != b


# -- the request path ---------------------------------------------------------


def test_serves_and_caches_across_repeats(request64):
    tier = _tier()
    first, second = run_requests(tier, [request64, request64])
    assert first.allocation == second.allocation
    snap = tier.snapshot()
    assert snap["served"] == 2
    assert snap["cache_hits"] + snap["cold_solves"] == 2
    assert snap["cold_solves"] == 1


def test_concurrent_identical_requests_coalesce_to_one_solve(minlp64):
    """The tentpole invariant end-to-end: N identical in-flight -> 1 solve."""
    tier = AsyncServingTier(
        TierConfig(shards=2, worker_mode="thread")
    )
    hold_solves(tier)
    n = 8

    async def main():
        async with tier:
            return await asyncio.gather(
                *(tier.submit(minlp64) for _ in range(n))
            )

    responses = asyncio.run(main())
    assert all(r.allocation == responses[0].allocation for r in responses)
    snap = tier.snapshot()
    assert snap["cold_solves"] == 1
    assert snap["coalesce"]["leaders"] == 1
    assert snap["coalesce"]["riders"] == n - 1


def test_coalescing_can_be_disabled(request64):
    tier = AsyncServingTier(
        TierConfig(shards=1, worker_mode="thread", coalesce=False)
    )

    async def main():
        async with tier:
            return await asyncio.gather(
                *(tier.submit(request64) for _ in range(4))
            )

    asyncio.run(main())
    snap = tier.snapshot()
    assert snap["coalesce"]["riders"] == 0
    assert snap["cold_solves"] >= 1


def test_degraded_requests_answer_from_the_greedy_rung(request64):
    # degrade_at=0 puts every arrival in the degrade band: the answer comes
    # from the polynomial-time greedy with explicit provenance, no solve.
    tier = _tier(
        admission=AdmissionPolicy(
            max_pending=10,
            thresholds={"batch": ClassThresholds(degrade_at=0.0, shed_at=1.0)},
        )
    )
    (response,) = run_requests(tier, [request64])
    assert response.source == "greedy"
    snap = tier.snapshot()
    assert snap["cold_solves"] == 0
    assert snap["degraded_greedy"] == 1
    assert snap["admission"]["degraded"] == 1


def test_degraded_requests_prefer_the_stale_cache(request64):
    # Prime the cache with an exact answer, expire it, then degrade: the
    # stale rung must serve the (bit-identical) old answer, not greedy.
    tier = _tier(ttl=1e-9)
    (exact,) = run_requests(tier, [request64])
    tier.admission.policy = AdmissionPolicy(
        max_pending=10,
        thresholds={"batch": ClassThresholds(degrade_at=0.0, shed_at=1.0)},
    )
    (degraded,) = run_requests(tier, [request64])
    assert degraded.source == "stale"
    assert degraded.allocation == exact.allocation
    assert tier.snapshot()["degraded_stale"] == 1


def test_shed_requests_get_typed_overload(request64):
    tier = _tier(
        admission=AdmissionPolicy(
            max_pending=10,
            thresholds={"batch": ClassThresholds(degrade_at=0.0, shed_at=0.0)},
        )
    )
    (response,) = run_requests(tier, [request64])
    assert not response.ok
    assert response.status == "overload"
    assert tier.snapshot()["admission"]["shed"] == 1


def test_cache_hits_answer_exactly_in_the_degrade_band(request64):
    # A live cache hit costs microseconds; degrading it to greedy would be
    # pure waste, so hits short-circuit the degrade verdict.
    tier = _tier()
    run_requests(tier, [request64])  # prime
    tier.admission.policy = AdmissionPolicy(
        max_pending=10,
        thresholds={"batch": ClassThresholds(degrade_at=0.0, shed_at=1.0)},
    )
    (hit,) = run_requests(tier, [request64])
    assert hit.cached and hit.ok
    assert tier.snapshot()["degraded_greedy"] == 0


# -- process workers ----------------------------------------------------------


def test_process_mode_matches_inline():
    """Out-of-process shards answer exactly what an inline shard does."""
    batch = [make_minlp_request(b) for b in (48, 64, 72)]
    reference = run_requests(_tier(shards=1), batch)
    tier = AsyncServingTier(TierConfig(shards=1, worker_mode="process"))
    responses = run_requests(tier, batch)
    assert all(r.ok for r in responses)
    for got, want in zip(responses, reference):
        assert got.allocation == want.allocation
        assert got.objective == want.objective
        assert got.iterations == want.iterations > 0
    assert tier.snapshot()["cold_solves"] == len(batch)


@pytest.mark.parametrize("mode", ["inline", "thread", "process"])
def test_a_min_sum_family_gets_cold_answers_in_any_order(mode):
    """A default tier, one min-sum family's budgets in two orders: every
    answer is the one a cold ``solve_request`` of that request gives —
    nothing an earlier sibling left behind reaches a later solve."""
    budgets = (48, 64, 72, 96)
    cold = {b: solve_request(make_minlp_request(b)) for b in budgets}
    for order in (budgets, budgets[::-1]):
        tier = AsyncServingTier(TierConfig(worker_mode=mode))
        responses = run_requests(tier, [make_minlp_request(b) for b in order])
        for budget, response in zip(order, responses):
            assert not response.cached
            assert response.allocation == cold[budget].allocation, (mode, order)
            assert response.objective == cold[budget].objective, (mode, order)
            # The same search, not just the same optimum: no seed, no cuts
            # carried over from a sibling.
            assert response.iterations == cold[budget].iterations, (mode, order)


def test_a_parked_stdin_reader_does_not_wedge_a_late_worker_fork(monkeypatch):
    """``serve_stdio`` in process mode on a real pipe: the reader thread is
    parked in ``readline`` when the first min-sum line arrives, so the shard
    forks its worker while that thread holds its file's lock.  A child
    forked while ``sys.stdin``'s lock is held deadlocks closing it in
    multiprocessing's bootstrap; serving a private ``dup`` keeps the lock
    off ``sys.stdin``, and the line must be answered."""
    read_fd, write_fd = os.pipe()
    stdin = os.fdopen(read_fd, "r")
    monkeypatch.setattr(sys, "stdin", stdin)
    replies: queue.Queue = queue.Queue()

    class Replies(io.StringIO):
        def write(self, text: str) -> int:
            for line in text.splitlines():
                replies.put(json.loads(line))
            return len(text)

    tier = AsyncServingTier(TierConfig(shards=1, worker_mode="process"))
    before = set(threading.enumerate())
    server = threading.Thread(
        target=serve_stdio, args=(tier, stdin, Replies()), daemon=True
    )
    server.start()
    feed = os.fdopen(write_fd, "w")
    try:
        # Wait for the loop's reader thread, then give it time to block.
        deadline = time.monotonic() + 30.0
        while not any(
            t.name.startswith("asyncio") for t in set(threading.enumerate()) - before
        ):
            assert time.monotonic() < deadline, "the reader thread never started"
            time.sleep(0.01)
        time.sleep(0.2)
        assert dispatched(tier) == [0]  # no worker forked yet
        feed.write(json.dumps({**make_minlp_request(64).to_dict(), "id": 7}) + "\n")
        feed.flush()
        reply = replies.get(timeout=60.0)
    finally:
        feed.close()  # EOF ends the serve
        server.join(timeout=10.0)
        if server.is_alive():  # wedged: kill the worker so the thread drains
            tier.close()
            server.join(timeout=10.0)
        stdin.close()
    assert reply["id"] == 7 and reply["status"] == "optimal"
    assert reply["iterations"] > 0  # a MINLP, solved by the forked worker
    assert dispatched(tier) == [1]
    assert not server.is_alive()


# -- the JSONL transport ------------------------------------------------------


def _serve(lines: list[str], **config) -> tuple[int, list[dict]]:
    config.setdefault("worker_mode", "thread")
    tier = AsyncServingTier(TierConfig(**config))
    out = io.StringIO()
    served = serve_stdio(tier, io.StringIO("\n".join(lines) + "\n"), out)
    return served, [json.loads(line) for line in out.getvalue().splitlines()]


def test_stdio_serves_and_echoes_ids(request64):
    payload = request64.to_dict()
    served, replies = _serve(
        [
            json.dumps({**payload, "id": "a"}),
            json.dumps({**payload, "id": "b"}),
        ]
    )
    assert served == 2
    # Responses may complete out of order; ids make them matchable.
    by_id = {r["id"]: r for r in replies}
    assert set(by_id) == {"a", "b"}
    assert by_id["a"]["allocation"] == by_id["b"]["allocation"]
    assert all("shard" in r for r in replies)


def test_stdio_control_lines(request64):
    line = json.dumps(request64.to_dict())
    # Inline workers make the sequence deterministic: the request's task
    # finishes before the loop reads the metrics line.
    served, replies = _serve(
        [line, '{"cmd": "metrics"}', '{"cmd": "quit"}', line],
        worker_mode="inline",
    )
    assert served == 1  # the quit stopped the loop before the second request
    metrics = next(r["metrics"] for r in replies if "metrics" in r)
    assert metrics["shards"] == 4
    assert metrics["served"] == 1


def test_stdio_rejects_malformed_lines():
    served, replies = _serve(["not json", '["a", "list"]', '{"cmd": "nope"}'])
    assert served == 0
    assert all("error" in r for r in replies)


def test_stdio_priority_rides_the_payload(request64):
    payload = {**request64.to_dict(), "priority": "background"}
    served, replies = _serve(
        [json.dumps(payload)],
        admission=AdmissionPolicy(
            max_pending=10,
            thresholds={
                "background": ClassThresholds(degrade_at=0.0, shed_at=1.0),
                "batch": ClassThresholds(degrade_at=0.9, shed_at=1.0),
            },
        ),
    )
    assert served == 1
    assert replies[0]["source"] == "greedy"  # degraded by its own class
