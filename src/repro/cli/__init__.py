"""Command-line front end: ``hslb`` (or ``python -m repro``).

A shell over the library, one module per surface; each module's
``register(subparsers)`` declares its subcommands' flags next to the
handler they feed:

* :mod:`~repro.cli.pipeline` — ``optimize`` (the HSLB pipeline on a CESM
  configuration, Table-III-style allocation report) and ``export`` (the
  same MINLP as an AMPL model);
* :mod:`~repro.cli.fmo` — ``fmo`` (HSLB and the baselines on a synthetic
  FMO system);
* :mod:`~repro.cli.dynlb` — ``dynlb`` (the frozen static plan against the
  online strategies under drift, noise, and crashes);
* :mod:`~repro.cli.serving` — ``serve`` (JSONL requests on stdin, answers
  on stdout; ``--async`` for the sharded concurrent tier), ``batch`` (a
  JSON file of requests, answered in input order) and ``chaos`` (a seeded
  fault-injection soak);
* :mod:`~repro.cli.experiments` — ``experiment`` (any registered paper
  experiment by id) and ``list``;
* :mod:`~repro.cli.obs` — ``trace`` (run any subcommand under the span
  tracer, or render one request's tree from a ``--trace-out`` dump),
  ``top`` (live dashboard over a ``/metrics`` scrape) and ``metrics`` (the
  registry in Prometheus text format).

Two rules keep it a shell: a flag exists only if a test, Make target, CI
step or doc passage passes it (``tests/cli/test_parser.py`` checks), and a
handler prints the library's report instead of rebuilding one.

Progress chatter goes to stderr through :mod:`repro.obs.logging`
(``-v``/``-q`` tune it), so stdout stays machine-clean under ``--json`` and
in pipelines; exit codes are identical either way.
"""

from __future__ import annotations

import argparse

from repro.cli import dynlb, experiments, fmo, obs, pipeline, serving
from repro.cli._common import UsageError, log
from repro.obs.logging import set_verbosity


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hslb",
        description=(
            "Heuristic static load balancing via MINLP — reproduction of the "
            "HSLB papers (FMO, SC 2012; CESM, IPDPSW 2014)."
        ),
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more progress chatter on stderr (repeatable)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress progress chatter (errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for surface in (pipeline, fmo, dynlb, serving, experiments, obs):
        surface.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    set_verbosity(args.verbose, args.quiet)
    try:
        return args.run(args)
    except UsageError as exc:
        log.error(str(exc))
        return 2
