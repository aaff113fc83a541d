"""What more than one ``hslb`` surface shares: the logger, the usage-error
channel, the one place a user-named file is read, the span-trace context,
and the flags several subcommands take (fault injection, ``--json``,
``--trace-out``), each declared once.
"""

from __future__ import annotations

import argparse
import contextlib

from repro.obs.logging import get_logger

log = get_logger("cli")


class UsageError(Exception):
    """A rejected flag value or user-named file; ``main`` prints the message
    on stderr and exits 2."""


@contextlib.contextmanager
def usage_errors():
    """Turn a library value object's ``ValueError`` into a :class:`UsageError`.

    ``FaultPlan``, ``ChaosPlan``, ``TierConfig`` and the workloads
    validate themselves; built from flags, a rejected value is the user's
    mistake.  Wrap only that *construction*, never a whole
    handler: a ``ValueError`` out of a solver must stay a traceback.
    """
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def read_user_file(path: str, parse):
    """Read a file named on the command line and return ``parse(text)``.

    Missing, unreadable, or rejected by ``parse`` with a ``ValueError``
    (``json.JSONDecodeError`` is one) or a ``RecursionError`` (``json``
    on a nest deeper than its stack): the user's to fix, exit 2.
    """
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


@contextlib.contextmanager
def tracing(path: str | None):
    """Collect a span trace for the enclosed block and write it to ``path``.

    When the tracer is already live (running under ``hslb trace``), the
    block just joins the ongoing trace and the file still gets written.
    """
    if not path:
        yield
        return
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    owns = not tracer.enabled
    if owns:
        tracer.reset()
        tracer.enable()
    try:
        yield
    finally:
        if owns:
            tracer.disable()
        lines = tracer.write_jsonl(path)
        log.info(f"trace written to {path}", spans=lines)


def add_json_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON report instead of tables",
    )


def add_trace_out_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help=f"write a JSONL span trace of {what}",
    )


def add_fault_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fault injection (repro.faults)")
    group.add_argument(
        "--fail-rate",
        type=float,
        default=0.0,
        help="probability a benchmark run dies and must be retried",
    )
    group.add_argument(
        "--straggler-rate",
        type=float,
        default=0.0,
        help="probability a per-component timer is straggler-inflated",
    )
    group.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the deterministic fault plan (same seed, same faults)",
    )


def fault_plan(args: argparse.Namespace, **crash: object):
    """Build a FaultPlan from CLI flags, or None when no fault was asked for.

    ``crash`` carries the subcommand's own crash fields (``None``: not asked
    for).  The plan is echoed on stderr so a run is reproducible from its log.
    """
    crash = {k: v for k, v in crash.items() if v is not None}
    if not (args.fail_rate or args.straggler_rate or crash):
        return None
    from repro.faults.plan import FaultPlan

    with usage_errors():
        plan = FaultPlan(
            seed=args.fault_seed,
            fail_rate=args.fail_rate,
            straggler_rate=args.straggler_rate,
            **crash,
        )
    log.info(f"fault plan: {plan.describe()}")
    return plan
