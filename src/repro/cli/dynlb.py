"""``hslb dynlb``: the frozen static plan against the online strategies.

The handler builds the workload and the run itself (it has strategy, crash
and fault flags the registered experiment does not) and prints the
experiment's report, ``DynlbComparisonResult``, so ``hslb dynlb`` and ``hslb
experiment dynlb-comparison`` cannot disagree on what a column means.
"""

from __future__ import annotations

import argparse
import json

from repro.cli._common import (
    UsageError,
    add_fault_args,
    add_json_arg,
    add_trace_out_arg,
    fault_plan,
    log,
    tracing,
    usage_errors,
)


def register(sub) -> None:
    dyn = sub.add_parser(
        "dynlb",
        help="online rebalancing: static vs dynamic strategies under drift",
    )
    dyn.add_argument(
        "--scenario",
        choices=("cesm", "fmo"),
        default="cesm",
        help="which simulator's ground truth feeds the dynamic run",
    )
    dyn.add_argument("--nodes", type=int, default=128, help="machine size")
    dyn.add_argument("--steps", type=int, default=120, help="run length in steps")
    dyn.add_argument(
        "--fragments", type=int, default=8, help="fragment count (fmo scenario)"
    )
    dyn.add_argument(
        "--strategies",
        default="static,hslb,diffusion,sweep,two-level",
        help="comma-separated strategy list to compare",
    )
    dyn.add_argument(
        "--interval", type=int, default=10, help="rebalance decision cadence"
    )
    dyn.add_argument(
        "--drift",
        choices=("none", "linear", "step", "walk"),
        default="linear",
        help="drift preset applied to the ground-truth curves",
    )
    dyn.add_argument(
        "--crash-step",
        type=int,
        default=None,
        help="inject a node-group crash at the top of this step",
    )
    dyn.add_argument(
        "--crash-component",
        default=None,
        help="which component's group dies (default: the largest)",
    )
    dyn.add_argument(
        "--crash-fraction",
        type=float,
        default=0.5,
        help="fraction of the interrupted step's work the crash burns",
    )
    add_json_arg(dyn)
    add_trace_out_arg(dyn, "the comparison")
    add_fault_args(dyn)
    dyn.set_defaults(run=_cmd_dynlb)


def _cmd_dynlb(args: argparse.Namespace) -> int:
    from repro.dynlb import (
        STRATEGIES,
        cesm_workload,
        compare_strategies,
        fmo_workload,
    )
    from repro.experiments.dynlb_experiments import DynlbComparisonResult

    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise UsageError(
            f"unknown strategies {unknown}; expected a subset of {list(STRATEGIES)}"
        )
    if not strategies:
        raise UsageError("--strategies must name at least one strategy")
    if args.interval < 1:
        raise UsageError(f"interval must be >= 1, got {args.interval}")
    crashing = args.crash_step is not None
    plan = fault_plan(
        args,
        crash_step=args.crash_step,
        crash_component=args.crash_component if crashing else None,
        crash_fraction=args.crash_fraction if crashing else None,
    )
    seed = 0 if args.seed is None else args.seed
    common = dict(
        total_nodes=args.nodes,
        steps=args.steps,
        drift=args.drift,
        seed=seed,
        faults=plan,
    )
    with usage_errors():
        if args.scenario == "cesm":
            workload = cesm_workload(**common)
        else:
            workload = fmo_workload(fragments=args.fragments, **common)
    log.info(workload.describe())
    with tracing(args.trace_out):
        results = compare_strategies(
            workload, strategies, interval=args.interval, seed=seed
        )
    report = DynlbComparisonResult(workload=workload.describe(), results=results)
    if args.json:
        doc = {
            "workload": workload.name,
            "seed": int(seed),
            "nodes": int(args.nodes),
            "steps": int(args.steps),
            "drift": args.drift,
            **report.to_dict(),
        }
        if plan is not None:
            doc["fault_plan"] = plan.describe()
        print(json.dumps(doc, indent=2))
    else:
        print(report.render())
    return 0
