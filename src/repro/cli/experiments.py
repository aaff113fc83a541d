"""``hslb experiment`` and ``hslb list``: the paper-experiment registry."""

from __future__ import annotations

import argparse

from repro.cli._common import UsageError


def register(sub) -> None:
    exp = sub.add_parser("experiment", help="run a registered paper experiment")
    exp.add_argument("name", help="experiment id (see `hslb list`)")
    exp.set_defaults(run=_cmd_experiment)

    sub.add_parser("list", help="list registered experiments").set_defaults(
        run=_cmd_list
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment

    kwargs = {} if args.seed is None else {"seed": args.seed}
    try:
        result = run_experiment(args.name, **kwargs)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc
    print(result.render())
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS

    for name in sorted(EXPERIMENTS):
        print(name)
    return 0
