"""The two serving workloads: ``serve_hot`` and ``serve_flash``.

``serve_hot`` is the read path: one long-lived tier whose caches hold every
distinct request, closed loop, ``cores`` clients.  ``serve_flash`` is the
write/miss path under queueing: every round a fresh cold tier takes 600
requests that are all due at t = 0 (open loop), and latency is timed from
that due time.  Load comes from this one process; the tier is built with
``TierConfig.for_host(cores, shards=min(4, cores))`` and default options
otherwise (``serve_flash`` raises ``max_pending`` as the legacy bench does).
"""

from __future__ import annotations

import asyncio
import os
import pickle
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs.metrics import REGISTRY
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.cache import SolutionCache
from repro.service.errors import ServiceError
from repro.service.frontend import AsyncServingTier, TierConfig
from repro.service.response import ServiceResponse
from repro.service.service import AllocationService
from repro.service.solver import (
    SolveOutcome,
    build_problem,
    greedy_outcome,
    solve_request,
    validate_outcome,
)

import catalogue
import hostspeed
from spans import SpanRecorder, percentile, summary

#: Requests per round.  A hot round is short so that the host-speed probe
#: taken before it still describes the host while it runs.
HOT_ROUND = 2_500
FLASH_ROUND = 600
MIN_ROUNDS = 3

#: The tail percentile.  Higher ones have their ten samples beyond them but
#: measure the host's stalls, not the program: over six identical
#: 100 k-request ``serve_hot`` runs p95 varied by 3 %, p98 by 7 %, p99 by 16 %
#: and p99.9 by 69 %.
TAIL_Q = 0.95

DEGRADED_SOURCES = ("stale", "greedy")


def cores() -> int:
    return len(os.sched_getaffinity(0))


def tier_config(**overrides) -> TierConfig:
    n = cores()
    return TierConfig.for_host(n, shards=min(4, n), **overrides)


# -- correctness ------------------------------------------------------------


class Oracle:
    """Independent check of every answer for the pinned pool."""

    def __init__(self, pool) -> None:
        self.pool = pool
        # The bounded greedy is feasible for this single-constraint min-max
        # family, so no exact answer may be worse than it.
        self.greedy = [greedy_outcome(r).objective for r in pool]
        self.exact: dict[int, tuple] = {}
        self._passed: set[tuple] = set()

    def new_tier(self) -> None:
        """Answers must agree within one tier's lifetime; a fresh tier may
        warm-start differently and pick another of several equal optima."""
        self.exact.clear()

    def check(self, rank: int, response) -> str | None:
        """Why this answer counts as failed, or ``None``."""
        if isinstance(response, Exception):
            return type(response).__name__
        answer = (
            response.objective, response.status,
            tuple(sorted(response.allocation.items())),
        )
        if (response.source not in DEGRADED_SOURCES
                and self.exact.setdefault(rank, answer) != answer):
            return "two answers for one fingerprint differ"
        signature = (rank, response.fingerprint, response.source, answer)
        if signature in self._passed:
            return None
        if not response.ok:
            return f"status {response.status}"
        outcome = SolveOutcome(
            fingerprint=response.fingerprint,
            allocation=response.allocation,
            objective=response.objective,
            status=response.status,
            iterations=response.iterations,
            wall_time=0.0,
            values={},
            warm_started=response.warm_started,
        )
        reason = validate_outcome(self.pool[rank], outcome)
        if reason is not None:
            return reason
        if response.objective > self.greedy[rank] * (1 + 1e-9):
            return (
                f"objective {response.objective!r} worse than the greedy "
                f"oracle {self.greedy[rank]!r}"
            )
        self._passed.add(signature)
        return None


class Tally:
    """Attempted/failed counts and the quality ratio of a run."""

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle
        self.attempted = 0
        self.failures: list[str] = []
        self._ratio_sum = 0.0
        self._ratio_n = 0

    def add(self, rank: int, response) -> None:
        self.attempted += 1
        reason = self.oracle.check(rank, response)
        if reason is not None:
            self.failures.append(f"rank {rank}: {reason}")
            return
        self._ratio_sum += response.objective / self.oracle.greedy[rank]
        self._ratio_n += 1

    @property
    def makespan_ratio(self) -> float:
        """Mean answer objective over the greedy oracle's, correct answers."""
        return self._ratio_sum / max(1, self._ratio_n)


# -- serve_hot --------------------------------------------------------------


async def _submit(tier, request, priority):
    try:
        return await tier.submit(request, priority=priority)
    except ServiceError as exc:  # shed / rejected / timed out: a failed op
        return exc


class Rounds:
    """Samples of the timed rounds, read at the reference host speed."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.walls: list[float] = []
        self.latencies: list[list[float]] = []  # per round
        self.plain_walls: list[float] = []  # untraced twins of traced rounds

    def add(self, speed: float, wall: float, latencies) -> None:
        self.speeds.append(speed)
        self.walls.append(wall * speed)
        self.latencies.append([v * speed for v in latencies])

    def result(self, tally: Tally) -> dict:
        per_round = len(self.latencies[0])
        rates = [per_round / wall for wall in self.walls]
        pooled = [v for round_ in self.latencies for v in round_]
        # The tail is taken per round and the median round reported: pooled,
        # it would be the tail of the one or two rounds the host stalled in.
        tails = [1e3 * percentile(round_, TAIL_Q) for round_ in self.latencies]
        return {
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "failures": tally.failures[:20],
            "end_to_end": {
                "throughput_ops": statistics.median(rates),
                "latency_p50_ms": 1e3 * percentile(pooled, 0.5),
                "latency_tail_ms": statistics.median(tails),
                "makespan_ratio": tally.makespan_ratio,
            },
            "stats": {
                "throughput_ops": summary(rates),
                "latency_p50_ms": summary([1e3 * v for v in pooled]),
                "latency_tail_ms": summary(tails),
            },
        }

    def trace_layers(self) -> dict:
        return {
            "host.kernel_ms": 1e3 * hostspeed.REFERENCE_S
            / statistics.median(self.speeds),
            "trace_overhead_pct": 100.0 * (
                statistics.median(self.walls)
                / statistics.median(self.plain_walls) - 1.0
            ),
        }


async def _hot_round(tier, pool, ranks, priorities, rec=None):
    """One closed-loop round; returns ``(wall, latencies, responses)``."""
    latencies: list[float] = []
    responses: list = []
    clients = cores()

    async def client(c: int) -> None:
        for rank, priority in zip(ranks[c::clients], priorities[c::clients]):
            start = time.perf_counter()
            response = await _submit(tier, pool[rank], priority)
            end = time.perf_counter()
            latencies.append(end - start)
            responses.append((rank, response))
            if rec is not None:
                rec.record("tier.submit", start, end)

    start = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(clients)))
    return time.perf_counter() - start, latencies, responses


async def _hot(seed, seconds, trace, setup, setup_only):
    pool = catalogue.request_pool()
    tally = Tally(Oracle(pool))

    def sequence(round_index):
        return catalogue.request_sequence(
            seed, "serve_hot", round_index, HOT_ROUND, len(pool)
        )

    async with AsyncServingTier(tier_config()) as tier:
        prefill = await asyncio.gather(
            # Interactive: all 48 fit under its degrade threshold, so every
            # answer is exact and cached.
            *(_submit(tier, request, "interactive") for request in pool)
        )
        await _hot_round(tier, pool, *sequence(0))  # warm-up
        out = setup.done()
        if setup_only:
            return out
        for rank, response in enumerate(prefill):  # set-up, not operations
            reason = tally.oracle.check(rank, response)
            if reason is not None:
                tally.failures.append(f"prefill rank {rank}: {reason}")

        rec = SpanRecorder("serve_hot") if trace else None
        timed = Rounds()
        begin = time.perf_counter()
        meter = hostspeed.SpeedMeter()
        while (len(timed.walls) < MIN_ROUNDS
               or time.perf_counter() - begin < seconds):
            index = len(timed.walls)
            # Traced: an untraced twin of the round runs first, so host
            # drift cannot pass for tracing overhead.
            for traced in ([False, True] if trace else [False]):
                if traced:
                    rec.round = index
                wall, latencies, responses = await _hot_round(
                    tier, pool, *sequence(index), rec if traced else None
                )
                speed = meter.factor()
                if traced == trace:
                    timed.add(speed, wall, latencies)
                else:
                    timed.plain_walls.append(wall * speed)
                for rank, response in responses:  # checked between rounds
                    tally.add(rank, response)
        snapshot = tier.snapshot()

    out.update(timed.result(tally))
    if trace:
        layers = await replay_layers(pool, sequence, rec)
        layers.update(_snapshot_layers([snapshot], [0.0], None))
        layers.update(timed.trace_layers())
        out["per_layer"] = layers
        out["recorder"] = rec
    return out


# -- serve_flash ------------------------------------------------------------


async def _flash_round(pool, ranks, priorities, rec=None):
    """A fresh cold tier takes the whole round at t = 0."""
    build = time.perf_counter()
    config = tier_config(admission=AdmissionPolicy(max_pending=1200))
    async with AsyncServingTier(config) as tier:
        tier_start = time.perf_counter() - build
        due = time.perf_counter()

        async def one(rank, priority):
            sent = time.perf_counter()
            response = await _submit(tier, pool[rank], priority)
            done = time.perf_counter()
            if rec is not None:
                rec.record("tier.submit", sent, done)
            return sent - due, done - due, rank, response

        answers = await asyncio.gather(
            *(one(r, p) for r, p in zip(ranks, priorities))
        )
        makespan = time.perf_counter() - due
        snapshot = tier.snapshot()
    return tier_start, makespan, answers, snapshot


async def _flash(seed, seconds, trace, setup, setup_only):
    pool = catalogue.request_pool()
    tally = Tally(Oracle(pool))

    def sequence(round_index):
        return catalogue.request_sequence(
            seed, "serve_flash", round_index, FLASH_ROUND, len(pool)
        )

    # Warm-up round: workers forked later inherit the lazily imported solver.
    await _flash_round(pool, *sequence(0))
    out = setup.done()
    if setup_only:
        return out
    lags, starts, snapshots = [], [], []
    rec = SpanRecorder("serve_flash") if trace else None
    timed = Rounds()
    begin = time.perf_counter()
    meter = hostspeed.SpeedMeter()
    while (len(timed.walls) < MIN_ROUNDS
           or time.perf_counter() - begin < seconds):
        index = len(timed.walls)
        # Traced: an untraced twin of the round runs first (see serve_hot).
        for traced in ([False, True] if trace else [False]):
            meter.refresh()  # the last round's checks ran since
            if traced:
                rec.round = index
                with rec.span("flash.round"):
                    result = await _flash_round(pool, *sequence(index), rec)
            else:
                result = await _flash_round(pool, *sequence(index))
            tier_start, makespan, answers, snapshot = result
            speed = meter.factor()
            tally.oracle.new_tier()
            for _, _, rank, response in answers:
                tally.add(rank, response)
            if traced != trace:
                timed.plain_walls.append(makespan * speed)
                continue
            timed.add(speed, makespan, [a[1] for a in answers])
            starts.append(tier_start * speed)
            snapshots.append(snapshot)
            lags.extend(a[0] * speed for a in answers)

    out.update(timed.result(tally))
    if trace:
        layers = await replay_layers(pool, sequence, rec)
        layers.update(_snapshot_layers(snapshots, timed.walls, layers))
        layers.update(timed.trace_layers())
        layers.update({
            "service.tier_start_ms": 1e3 * statistics.median(starts),
            "loadgen.send_lag_ms": 1e3 * statistics.median(lags),
        })
        out["per_layer"] = layers
        out["recorder"] = rec
    return out


def run(workload, seed, seconds, trace, reference, setup,
        setup_only=False) -> dict:
    del reference  # serving answers are checked against the greedy oracle
    main = _hot if workload == "serve_hot" else _flash
    return asyncio.run(main(seed, seconds, trace, setup, setup_only))


# -- per-layer measurements (traced runs only) ------------------------------

#: The parts of one cache-hit request, in path order.
HIT_PARTS = (
    "service.fingerprint_us", "service.route_us", "service.admission_us",
    "service.cache_get_us", "service.response_us", "service.recording_us",
)


def _snapshot_layers(snapshots, makespans, layers) -> dict:
    """Counts the tier reports about itself: median over the first
    ``MIN_ROUNDS`` rounds, which every run has, so that they repeat."""

    def med(fn):
        return statistics.median(fn(s) for s in snapshots[:MIN_ROUNDS])

    out = {
        "service.coalesce_rate": med(lambda s: s["coalesce"]["coalesce_rate"]),
        "service.leaders": med(lambda s: s["coalesce"]["leaders"]),
        "service.riders": med(lambda s: s["coalesce"]["riders"]),
        "service.admission_accepted": med(lambda s: s["admission"]["accepted"]),
        "service.admission_degraded": med(lambda s: s["admission"]["degraded"]),
        "service.admission_shed": med(lambda s: s["admission"]["shed"]),
        "service.cache_hits": med(lambda s: s["cache_hits"]),
        "service.cold_solves": med(lambda s: s["cold_solves"]),
        "service.warm_solves": med(lambda s: s["warm_solves"]),
        "service.degraded_share": med(
            lambda s: (s["degraded_stale"] + s["degraded_greedy"])
            / max(1, s["admission"]["accepted"] + s["admission"]["degraded"]
                  + s["admission"]["shed"])
        ),
        "service.shard_routed_max_share": med(
            lambda s: max(p["routed"] for p in s["per_shard"].values())
            / max(1, sum(p["routed"] for p in s["per_shard"].values()))
        ),
    }
    if layers is not None:
        # Estimates: isolated in-process solve time of what the round solved,
        # against the wall time its workers were available.
        solve_sum = 1e-3 * (
            out["service.cold_solves"] * layers["service.solve_request_ms"]
            + out["service.warm_solves"] * layers["service.solve_warm_ms"]
        )
        makespan = statistics.median(makespans)
        workers = snapshots[0]["shards"]
        out["service.worker_util_est"] = solve_sum / (makespan * workers)
        out["service.makespan_over_solve_sum"] = makespan * workers / solve_sum
    return out


def _family_donor(pool, index):
    """Nearest-budget sibling of ``pool[index]`` (same curves)."""
    request = pool[index]
    siblings = [
        i for i, other in enumerate(pool)
        if i != index and other.family_key() == request.family_key()
    ]
    return min(
        siblings, key=lambda i: abs(pool[i].total_nodes - request.total_nodes)
    )


async def replay_layers(pool, sequence, rec: SpanRecorder) -> dict:
    """Time each service layer's public function from outside.

    Microsecond-scale functions are timed in batches over the workload's own
    request sequence (one span per batch, ``count`` calls); per-solve layers
    once per distinct request.
    """
    config = tier_config(worker_mode="inline")
    tier = AsyncServingTier(config)
    admission = AdmissionController(config.admission)
    cache: SolutionCache = SolutionCache(capacity=config.cache_capacity)
    service = AllocationService(cache_capacity=config.cache_capacity)

    # Per distinct request: build, cold solve, warm solve, validate, pickle.
    distinct: dict[str, list[float]] = defaultdict(list)

    speed = 1.0  # refreshed by a probe before every group of measurements

    @contextmanager
    def timed(name, scale):
        with rec.span(name) as s:
            yield
        distinct[name].append(scale * speed * (s["end"] - s["start"]))

    outcomes, pickle_bytes = [], []
    rec.round = 0
    with rec.span("replay.distinct", count=len(pool)):
        for request in pool:
            speed = hostspeed.factor(hostspeed.probe())
            with timed("service.build_problem", 1e3):
                build_problem(request)
            with timed("service.solve_request", 1e3):
                outcomes.append(solve_request(request))
        for index, request in enumerate(pool):
            donor = outcomes[_family_donor(pool, index)]
            speed = hostspeed.factor(hostspeed.probe())
            with timed("service.solve_warm", 1e3):
                warm = solve_request(request, x0=dict(donor.values))
            with timed("service.validate", 1e6):
                validate_outcome(request, warm)
            with timed("service.pickle", 1e6):
                blobs = [
                    pickle.dumps(request.to_dict()),
                    pickle.dumps(outcomes[index].to_dict()),
                ]
                for blob in blobs:
                    pickle.loads(blob)
            pickle_bytes.append(sum(len(b) for b in blobs))
    for request, outcome in zip(pool, outcomes):
        cache.put(outcome.fingerprint, outcome)
        service.admit(request, outcome)
        tier.shards[tier.route(request)].service.admit(request, outcome)

    # Per request of the sequence: the parts of a cache hit, batch-timed.
    per_call: dict[str, list[float]] = defaultdict(list)
    tier_histogram = REGISTRY.histogram("service_tier_request_seconds")
    for round_index in range(MIN_ROUNDS):
        rec.round = round_index
        ranks, priorities = sequence(round_index)
        requests = [pool[r] for r in ranks]
        n = len(requests)

        @contextmanager
        def batch(metric):
            speed = hostspeed.factor(hostspeed.probe())
            with rec.span(metric.removesuffix("_us"), count=n) as s:
                yield
            per_call[metric].append(1e6 * speed * (s["end"] - s["start"]) / n)

        with rec.span("replay.requests", count=n):
            with batch("service.fingerprint_us"):
                prints = [r.fingerprint() for r in requests]
            with batch("service.route_us"):
                for r in requests:
                    tier.route(r)
            with batch("service.admission_us"):
                for p in priorities:
                    admission.decide(p, 0)
            with batch("service.cache_get_us"):
                hits = [cache.get(fp) for fp in prints]
            with batch("service.response_us"):
                for hit in hits:
                    ServiceResponse.from_outcome(hit, cached=True, latency=0.0)
            with batch("service.recording_us"):
                # What the tier books per hit: its own histogram, the
                # registry's, the shard's ServiceMetrics and the SLO window.
                for p in priorities:
                    tier.latency.observe(1e-4)
                    tier_histogram.observe(1e-4)
                    service.metrics.record_hit(1e-4)
                    tier.slo.record(p, 1e-4, "ok")
            with batch("service.cache_put_us"):
                for fp, hit in zip(prints, hits):
                    cache.put(fp, hit)
            with batch("service.hit_path_us"):
                for r in requests:
                    service.submit(r)
            with batch("service.tier_hit_us"):
                for r, p in zip(requests, priorities):
                    await tier.submit(r, priority=p)
    tier.close()

    firsts = {}
    for index, request in enumerate(pool):
        firsts.setdefault(request.family_key(), index)
    # One request per family, sequentially, through a process-mode tier:
    # nothing is warm-started or coalesced, so what exceeds the same
    # in-process solves is the process hop, pickling and loop dispatch.
    async with AsyncServingTier(tier_config()) as cold_tier:
        for index in firsts.values():
            speed = hostspeed.factor(hostspeed.probe())
            with timed("service.tier_cold_submit", 1e3):
                await cold_tier.submit(pool[index])

    layers = {name: statistics.median(v) for name, v in per_call.items()}
    medians = {name: statistics.median(v) for name, v in distinct.items()}
    layers.update({
        "service.build_problem_ms": medians["service.build_problem"],
        "service.solve_request_ms": medians["service.solve_request"],
        "service.solve_warm_ms": medians["service.solve_warm"],
        "service.warm_speedup": medians["service.solve_request"]
        / medians["service.solve_warm"],
        "service.solve_iterations": statistics.fmean(
            o.iterations for o in outcomes
        ),
        "service.validate_us": medians["service.validate"],
        "service.pickle_bytes": statistics.median(pickle_bytes),
        "service.pickle_us": medians["service.pickle"],
        "service.dispatch_overhead_ms": medians["service.tier_cold_submit"]
        - statistics.median(
            distinct["service.solve_request"][i] for i in firsts.values()
        ),
    })
    parts = sum(layers[name] for name in HIT_PARTS)
    layers["service.frontend_self_us"] = layers["service.tier_hit_us"] - parts
    layers["service.attributed_pct"] = (
        100.0 * parts / layers["service.tier_hit_us"]
    )
    return layers
