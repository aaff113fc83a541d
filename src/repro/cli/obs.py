"""``hslb trace``, ``hslb top`` and ``hslb metrics``: looking at a run.

``trace <cmd>`` and ``metrics <cmd>`` run another subcommand first; they
re-enter :func:`repro.cli.main` through a function-local import.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import pathlib
import sys

from repro.cli._common import UsageError, log, read_user_file, usage_errors


def register(sub) -> None:
    trc = sub.add_parser(
        "trace",
        help="run a subcommand under the span tracer, flamegraph on stderr; "
        "or render one request's tree from a trace dump with --id",
    )
    trc.add_argument(
        "--id",
        dest="trace_id",
        default=None,
        metavar="TRACE_ID",
        help="render the flamegraph/timeline of one request tree from a "
        "JSONL trace dump (requires --input)",
    )
    trc.add_argument(
        "--input",
        metavar="FILE",
        default=None,
        help="JSONL trace dump to read (written by --trace-out)",
    )
    trc.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="subcommand (and flags) to run traced, e.g. `optimize --nodes 64`",
    )
    trc.set_defaults(run=_cmd_trace)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a /metrics scrape (SLO burn, "
        "latency quantiles, traffic)",
    )
    top.add_argument(
        "--url",
        default=None,
        help="metrics endpoint to scrape, e.g. http://127.0.0.1:9100/metrics",
    )
    top.add_argument(
        "--input",
        metavar="FILE",
        default=None,
        help="read exposition text from a file instead of scraping",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between repaints (default: 2)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after this many repaints (default: run until ^C)",
    )
    top.set_defaults(run=_cmd_top)

    met = sub.add_parser(
        "metrics",
        help="print the metrics registry in Prometheus text format "
        "(a subcommand run first prints its report on stderr)",
    )
    met.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="optional subcommand to run first so the registry has data",
    )
    met.set_defaults(run=_cmd_metrics)


def _strip_separator(rest: list[str]) -> list[str]:
    """argparse.REMAINDER keeps a leading ``--``; drop it."""
    return rest[1:] if rest and rest[0] == "--" else rest


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.cli import main
    from repro.obs.trace import get_tracer

    if args.trace_id is not None:
        return _cmd_trace_by_id(args)
    rest = _strip_separator(args.rest)
    if not rest:
        raise UsageError("trace needs a subcommand, e.g. `hslb trace optimize ...`")
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        code = main(rest)
    finally:
        tracer.disable()
    print(tracer.render_flamegraph(), file=sys.stderr)
    return code


def _cmd_trace_by_id(args: argparse.Namespace) -> int:
    """Render one request's span tree from a JSONL trace dump."""
    from repro.obs.export import (
        assemble_trace,
        parse_trace_jsonl,
        render_flamegraph,
        render_timeline,
    )

    if not args.input:
        raise UsageError("trace --id needs --input FILE (a --trace-out JSONL dump)")
    records = read_user_file(args.input, parse_trace_jsonl)
    roots = assemble_trace(records, args.trace_id)
    if not roots:
        log.error(f"no spans for trace {args.trace_id!r} in {args.input}")
        return 1
    print(f"trace {args.trace_id} ({sum(1 for r in roots for _ in r.walk())} spans)")
    print(render_flamegraph(roots))
    # Why a solve was slow: LPs per engine, polish snaps, root NLP time.
    for root in roots:
        for node, _ in root.walk():
            if node.name == "minlp.oa":
                print("minlp.oa  " + "  ".join(
                    f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in node.tags.items()
                ))
    print()
    print(render_timeline(roots))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import fetch_url, top

    if args.input:
        fetch = pathlib.Path(args.input).read_text
    elif args.url:
        fetch = functools.partial(fetch_url, args.url)
    else:
        raise UsageError("top needs --url or --input")
    try:
        # What the loop can raise ValueError on is the fetched text not
        # being Prometheus exposition: the user pointed it at the wrong thing.
        with usage_errors():
            painted = top(fetch, interval=args.interval, iterations=args.iterations)
    except KeyboardInterrupt:
        return 0
    return 0 if painted else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.cli import main
    from repro.obs.export import prometheus_exposition
    from repro.obs.metrics import REGISTRY
    from repro.obs.telemetry import ensure_registered

    rest = _strip_separator(args.rest)
    if rest:
        # The sub-run's report goes to stderr, so stdout is exposition text
        # only (`hslb metrics optimize ... > m.txt` feeds `hslb top --input`).
        with contextlib.redirect_stdout(sys.stderr):
            code = main(rest)
        if code != 0:
            return code
    ensure_registered()
    sys.stdout.write(prometheus_exposition(REGISTRY))
    return 0
