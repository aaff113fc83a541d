#!/usr/bin/env python
"""Trace-driven load generator CLI for the async serving tier.

A thin runner over :mod:`repro.service.loadgen`: build a keyed
Zipf + diurnal + flash-crowd trace, replay it against a freshly
constructed :class:`~repro.service.frontend.AsyncServingTier`, and print
the replay report as JSON (optionally writing it to ``--out``).

Examples::

    # the canonical bench trace, burst replay, 4 shards
    python benchmarks/loadgen.py

    # a bigger trace, paced at 10x trace speed, 8 shards, shedding allowed
    python benchmarks/loadgen.py --requests 5000 --speed 10 \
        --shards 8 --max-pending 64

This script is intentionally *not* the gated benchmark — that is
``bench_asyncserve.py`` — it is the knob-turning tool for exploring how
the tier behaves under traffic shapes the gate does not pin.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.service.admission import AdmissionPolicy  # noqa: E402
from repro.service.frontend import AsyncServingTier, TierConfig  # noqa: E402
from repro.service.loadgen import (  # noqa: E402
    TraceSpec,
    generate_trace,
    priority_histogram,
    replay,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    trace = parser.add_argument_group("trace shape")
    trace.add_argument("--requests", type=int, default=600)
    trace.add_argument("--seed", type=int, default=20120427)
    trace.add_argument("--families", type=int, default=6)
    trace.add_argument(
        "--budgets", type=int, nargs="+", default=[48, 64, 72, 96]
    )
    trace.add_argument("--zipf", type=float, default=1.1)
    trace.add_argument("--duration", type=float, default=30.0)
    trace.add_argument("--diurnal-amplitude", type=float, default=0.5)
    trace.add_argument("--flash-crowds", type=int, default=2)
    trace.add_argument("--flash-magnitude", type=float, default=4.0)
    tier = parser.add_argument_group("tier")
    tier.add_argument("--shards", type=int, default=4)
    tier.add_argument("--no-coalesce", action="store_true")
    tier.add_argument(
        "--max-pending",
        type=int,
        default=0,
        help="admission capacity; 0 sizes it above the trace (no shedding)",
    )
    run = parser.add_argument_group("replay")
    run.add_argument(
        "--speed",
        type=float,
        default=0.0,
        help="trace-time speedup; 0 replays the whole trace as one burst",
    )
    run.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    spec = TraceSpec(
        n_requests=args.requests,
        seed=args.seed,
        n_families=args.families,
        budgets=tuple(args.budgets),
        zipf_exponent=args.zipf,
        duration=args.duration,
        diurnal_amplitude=args.diurnal_amplitude,
        flash_crowds=args.flash_crowds,
        flash_magnitude=args.flash_magnitude,
    )
    events = generate_trace(spec)
    max_pending = args.max_pending or 2 * len(events)
    config = TierConfig(
        shards=args.shards,
        coalesce=not args.no_coalesce,
        admission=AdmissionPolicy(max_pending=max_pending),
    )
    report = replay(AsyncServingTier(config), events, speed=args.speed)
    payload = report.snapshot()
    payload["trace_priorities"] = priority_histogram(events)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
