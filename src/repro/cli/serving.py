"""``hslb serve``, ``hslb batch`` and ``hslb chaos``: three ways in to the
one serving tier, built from the same resilience and chaos flags.

``serve`` is the stdio transport (``serve_stdio``); ``batch`` and ``chaos``
drive ``run_requests``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace

from repro.cli._common import (
    UsageError,
    add_json_arg,
    add_trace_out_arg,
    log,
    read_user_file,
    tracing,
    usage_errors,
)

#: How long an injected hang sleeps in a worker process: far below
#: ``ChaosPlan.hang_seconds``' 30 s, so a soak spends its wall time on requests.
_CHAOS_HANG_SECONDS = 2.0

#: What ``hslb chaos`` injects when no ``--chaos-*-rate`` is given: a soak
#: with nothing injected proves nothing.  Any rate implies the resilient
#: path, so the soak never runs without it.
_DEFAULT_SOAK_RATES = dict(
    chaos_crash_rate=0.15,
    chaos_hang_rate=0.05,
    chaos_slow_rate=0.10,
    chaos_corrupt_rate=0.05,
)


def _add_tier_args(parser: argparse.ArgumentParser) -> None:
    """The flags every serving subcommand builds its tier from."""
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request wall deadline in seconds",
    )
    group = parser.add_argument_group("resilience (retry / breaker / degradation)")
    group.add_argument(
        "--resilient",
        action="store_true",
        help="enable the resilient request path (retries, circuit breaker, "
        "degradation ladder); implied by any --chaos-* rate",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=3,
        help="solve attempts per request before degrading (resilient mode)",
    )
    group = parser.add_argument_group("chaos injection (repro.faults.chaos)")
    group.add_argument(
        "--chaos-crash-rate",
        type=float,
        default=0.0,
        help="probability a solve dies as a worker crash",
    )
    group.add_argument(
        "--chaos-hang-rate",
        type=float,
        default=0.0,
        help="probability a solve hangs until the harvest timeout",
    )
    group.add_argument(
        "--chaos-slow-rate",
        type=float,
        default=0.0,
        help="probability a solve is straggler-delayed",
    )
    group.add_argument(
        "--chaos-corrupt-rate",
        type=float,
        default=0.0,
        help="probability a solve returns a corrupted result",
    )
    group.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed of the deterministic chaos plan (same seed, same faults)",
    )
    group.add_argument(
        "--chaos-immune-after",
        type=int,
        default=2,
        help="attempt index from which a request runs fault-free "
        "(guarantees retries eventually land); negative = never immune",
    )


def register(sub) -> None:
    srv = sub.add_parser(
        "serve",
        help="allocation service: JSONL requests in, JSONL answers out",
    )
    _add_tier_args(srv)
    add_trace_out_arg(srv, "the serving session")
    tier = srv.add_argument_group("async tier (hslb serve --async)")
    tier.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve through the sharded asyncio tier (consistent-hash "
        "cache shards, single-flight coalescing, tiered admission)",
    )
    tier.add_argument(
        "--shards",
        type=int,
        default=4,
        help="cache shards on the consistent-hash ring (async tier)",
    )
    tier.add_argument(
        "--worker-mode",
        choices=("auto", "thread", "process", "inline"),
        default="auto",
        help="where a shard's MINLP solves (min-sum) run: 'process' ships "
        "them to one supervised worker per shard (parallel on multi-core "
        "hosts), 'thread' keeps them on the shard's thread (best on one "
        "core), 'inline' is deterministic but blocks the loop; 'auto' "
        "picks by host core count.  Min-max / max-min requests are "
        "answered on the shard's thread in every mode: the sub-millisecond "
        "heap is cheaper than the hop to a worker",
    )
    tier.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="tier-wide in-flight limit; with --async, admission starts "
        "degrading and shedding by priority class as it is approached",
    )
    tier.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable single-flight coalescing of identical in-flight "
        "requests (async tier)",
    )
    tier.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a Prometheus /metrics + /healthz HTTP endpoint on "
        "this port for the lifetime of the session (0 = ephemeral)",
    )
    srv.set_defaults(run=_cmd_serve)

    bat = sub.add_parser(
        "batch", help="answer a JSON file of allocation requests in one batch"
    )
    bat.add_argument("requests", help="path to a JSON array of request objects")
    _add_tier_args(bat)
    bat.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes MINLP (min-sum) solves fan out to, one shard "
        "each (0 = one inline shard; min-max / max-min never leave it)",
    )
    bat.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission limit; larger batches are refused (backpressure)",
    )
    bat.add_argument(
        "--metrics",
        action="store_true",
        help="append a final {'metrics': ...} JSONL line to stdout",
    )
    bat.set_defaults(run=_cmd_batch)

    cha = sub.add_parser(
        "chaos",
        help="soak the resilient service under injected faults and report "
        "per-request provenance",
    )
    cha.add_argument(
        "--requests",
        type=int,
        default=200,
        help="how many requests the deterministic soak mix contains",
    )
    cha.add_argument(
        "--workers",
        type=int,
        default=0,
        help="supervised-pool size (0 = deterministic in-process chaos); "
        "the soak's min-sum half ships to the workers and dies physically",
    )
    add_json_arg(cha)
    cha.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the final metrics snapshot as JSON (CI artifact)",
    )
    _add_tier_args(cha)
    cha.set_defaults(run=_cmd_chaos)


def _chaos_plan(args: argparse.Namespace):
    """Build a ChaosPlan from CLI flags, or None when no rate was asked for."""
    rates = dict(
        crash_rate=args.chaos_crash_rate,
        hang_rate=args.chaos_hang_rate,
        slow_rate=args.chaos_slow_rate,
        corrupt_rate=args.chaos_corrupt_rate,
    )
    if not any(rates.values()):
        return None
    from repro.faults.chaos import ChaosPlan

    chaos = ChaosPlan(
        seed=args.chaos_seed,
        immune_after=(
            None if args.chaos_immune_after < 0 else args.chaos_immune_after
        ),
        hang_seconds=_CHAOS_HANG_SECONDS,
        **rates,
    )
    log.info(f"chaos plan: {chaos.describe()}")
    return chaos


def _tier(args: argparse.Namespace, worker_mode: str, **config: object):
    """The serving tier every service subcommand drives: ``config`` goes to
    ``TierConfig`` beside what the resilience and chaos flags ask for."""
    from repro.service import (
        AsyncServingTier,
        ResiliencePolicy,
        RetryPolicy,
        TierConfig,
    )

    with usage_errors():
        chaos = _chaos_plan(args)
        if args.resilient or chaos is not None:
            config["resilience"] = ResiliencePolicy(
                retry=RetryPolicy(max_attempts=max(1, args.retries))
            )
        # "auto" leaves the mode to for_host (by core count).
        if worker_mode != "auto":
            config["worker_mode"] = worker_mode
        return AsyncServingTier(TierConfig.for_host(chaos=chaos, **config))


def _batch_tier(args: argparse.Namespace, max_pending: int, workers: int):
    """A tier with all-or-nothing admission: ``workers=0`` solves inline on
    one shard (deterministic, answers in input order), ``workers=N`` on N
    shards that ship their MINLP solves to one supervised worker process each.

    The ``max_pending`` refusal is the only admission gate: every admitted
    request gets the exact path, none is degraded or shed by class.
    """
    from repro.service import AdmissionPolicy, ClassThresholds
    from repro.service.admission import DEFAULT_PRIORITY

    with usage_errors():
        admission = AdmissionPolicy(
            max_pending=max_pending,
            thresholds={
                DEFAULT_PRIORITY: ClassThresholds(degrade_at=1.0, shed_at=1.0)
            },
        )
    return _tier(
        args,
        "process" if workers else "inline",
        shards=max(1, workers),
        admission=admission,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    """JSONL over stdio through the serving tier: plain ``serve`` is the
    inline one-shard tier of ``batch --workers 0`` (one request at a time,
    answers in input order), ``--async`` the sharded concurrent preset."""
    from repro.service import AdmissionPolicy, serve_stdio

    if args.use_async:
        with usage_errors():
            admission = AdmissionPolicy(max_pending=args.max_pending)
        tier = _tier(
            args,
            args.worker_mode,
            shards=args.shards,
            admission=admission,
            coalesce=not args.no_coalesce,
        )
    else:
        tier = _batch_tier(args, args.max_pending, workers=0)
    with tracing(args.trace_out):
        served = serve_stdio(
            tier,
            sys.stdin,
            sys.stdout,
            deadline=args.deadline,
            metrics_port=args.metrics_port,
        )
    log.info(f"served {served} request(s)")
    if args.use_async:
        print(json.dumps(tier.snapshot(), indent=2), file=sys.stderr)
    else:
        print(tier.metrics.render(), file=sys.stderr)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.service import (
        ServiceOverloadError,
        ServiceRequestError,
        SolveRequest,
        run_requests,
    )

    payloads = read_user_file(args.requests, json.loads)
    if not isinstance(payloads, list):
        raise UsageError(f"{args.requests} must hold a JSON array of requests")
    try:
        requests = [SolveRequest.from_dict(p) for p in payloads]
    except ServiceRequestError as exc:
        raise UsageError(str(exc)) from exc
    tier = _batch_tier(args, args.max_pending, args.workers)
    try:
        responses = run_requests(tier, requests, deadline=args.deadline)
    except ServiceOverloadError as exc:
        log.error(str(exc))
        return 3
    for response in responses:
        print(json.dumps(response.to_dict()))
    snapshot = tier.snapshot()
    if args.metrics:
        print(json.dumps({"metrics": snapshot}))
    print(json.dumps(snapshot, indent=2), file=sys.stderr)
    return 0 if all(r.ok for r in responses) else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.service import run_requests
    from repro.service.loadgen import TraceSpec, request_pool

    if args.requests < 1:
        raise UsageError("--requests must be >= 1")
    if not any(getattr(args, name) for name in _DEFAULT_SOAK_RATES):
        vars(args).update(_DEFAULT_SOAK_RATES)
    tier = _batch_tier(args, max(args.requests, 1024), args.workers)
    # Cycle the load generator's pool (families x node budgets).  Repeats
    # are intentional: they exercise the cache and dedup paths while the
    # distinct requests exercise solves.  Every other entry
    # is made min-sum: with ``--workers N`` only a request that builds a
    # MINLP ships to a worker process, so an all-min-max soak would kill none.
    pool = [
        replace(request, objective="min-sum") if index % 2 else request
        for index, request in enumerate(request_pool(TraceSpec()))
    ]
    requests = [pool[i % len(pool)] for i in range(args.requests)]
    responses = run_requests(tier, requests, deadline=args.deadline)
    sources = Counter(r.source for r in responses)
    snapshot = tier.snapshot()
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump(snapshot, fh, indent=2)
        log.info(f"metrics snapshot written to {args.metrics_out}")
    answered = len(responses)
    if args.json:
        report = {
            "requests": len(requests),
            "answered": answered,
            "sources": dict(sources),
            "responses": [r.to_dict() for r in responses],
            "metrics": snapshot,
        }
        print(json.dumps(report, indent=2))
    else:
        for response in responses:
            note = ""
            if response.source == "stale":
                note = f" (age {response.staleness:.1f}s)"
            elif not response.ok:
                note = f" ({response.message})"
            print(
                f"{response.fingerprint[:12]}  {response.status:<11}"
                f"  source={response.source}{note}"
            )
        print(json.dumps(snapshot, indent=2), file=sys.stderr)
    if answered != len(requests):
        log.error(
            f"lost requests: {len(requests) - answered} of {len(requests)} "
            "got no response"
        )
        return 1
    log.info(
        f"all {answered} request(s) answered; "
        f"sources: {dict(sorted(sources.items()))}"
    )
    return 0
