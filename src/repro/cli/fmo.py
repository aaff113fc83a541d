"""``hslb fmo``: HSLB and the baselines on one synthetic FMO system.

One machine size, a load-imbalance column, and (with ``--crash-group``) a
recovery-strategy table — not the across-sizes makespan report of
``hslb experiment fmo-comparison``.
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
    tracing,
)
from repro.obs.trace import span
from repro.util.rng import default_rng


def register(sub) -> None:
    fmo = sub.add_parser("fmo", help="run HSLB and baselines on an FMO system")
    fmo.add_argument("--fragments", type=int, default=12)
    fmo.add_argument("--nodes", type=int, default=256)
    fmo.add_argument(
        "--system",
        choices=("protein", "water"),
        default="protein",
        help="synthetic molecular system kind",
    )
    add_json_arg(fmo)
    add_trace_out_arg(fmo, "the run")
    add_fault_args(fmo)
    fmo.add_argument(
        "--crash-group",
        type=int,
        default=None,
        help="lose this GDDI group mid-run and compare recovery strategies",
    )
    fmo.add_argument(
        "--crash-fraction",
        type=float,
        default=0.5,
        help="when the crash hits, as a fraction of the fault-free makespan",
    )
    fmo.set_defaults(run=_cmd_fmo)


def _cmd_fmo(args: argparse.Namespace) -> int:
    from repro.fmo.molecules import protein_like, water_cluster
    from repro.fmo.schedulers import (
        greedy_dynamic_schedule,
        hslb_schedule,
        uniform_static_schedule,
    )
    from repro.fmo.simulator import FMOSimulator
    from repro.util.tables import format_table

    if args.nodes < args.fragments:
        raise UsageError(
            f"--nodes must cover every fragment ({args.fragments}), "
            f"got {args.nodes}"
        )
    rng = default_rng(args.seed)
    system = (
        protein_like(args.fragments, rng)
        if args.system == "protein"
        else water_cluster(args.fragments, rng)
    )
    plan = fault_plan(
        args,
        crash_group=args.crash_group,
        crash_fraction=(
            args.crash_fraction if args.crash_group is not None else None
        ),
    )
    sim = FMOSimulator(system, faults=plan)
    recovery_rows = None
    with tracing(args.trace_out):
        with span("cli.fmo", system=system.name, nodes=int(args.nodes)):
            hs, sol = hslb_schedule(system, args.nodes)
            dynamic = greedy_dynamic_schedule(
                system, args.nodes, max(2, args.fragments // 3)
            )
            uniform = uniform_static_schedule(system, args.nodes, args.fragments)
            rows = []
            for sched in (hs, dynamic, uniform):
                run = sim.execute(sched, default_rng(args.seed))
                rows.append([sched.label, run.makespan, run.load_imbalance])
            if plan is not None and plan.crash_group is not None:
                from repro.fmo.recovery import STRATEGIES, run_with_crash

                if not 0 <= plan.crash_group < dynamic.n_groups:
                    raise UsageError(
                        f"--crash-group must be in [0, {dynamic.n_groups}) "
                        "for this run"
                    )
                recovery_rows = []
                for strategy in STRATEGIES:
                    out = run_with_crash(
                        sim,
                        dynamic,
                        crash_group=plan.crash_group,
                        crash_fraction=plan.crash_fraction,
                        strategy=strategy,
                        rng=default_rng(args.seed),
                    )
                    recovery_rows.append([strategy, out.makespan, out.degradation])
    if args.json:
        doc = {
            "system": system.name,
            "nodes": int(args.nodes),
            "fragments": int(args.fragments),
            "schedulers": [
                {
                    "label": label,
                    "makespan": float(makespan),
                    "load_imbalance": float(imbalance),
                }
                for label, makespan, imbalance in rows
            ],
            "hslb": {
                "group_sizes": [int(g) for g in hs.group_sizes],
                "predicted": float(sol.objective),
            },
        }
        if plan is not None:
            doc["fault_plan"] = plan.describe()
        if recovery_rows is not None:
            doc["recovery"] = [
                {
                    "strategy": strategy,
                    "makespan": float(makespan),
                    "degradation": float(degradation),
                }
                for strategy, makespan, degradation in recovery_rows
            ]
        print(json.dumps(doc, indent=2))
        return 0
    print(
        format_table(
            ["scheduler", "makespan s", "load imbalance"],
            rows,
            title=f"{system.name} on {args.nodes} nodes",
        )
    )
    print(f"\nHSLB group sizes: {hs.group_sizes} (predicted {sol.objective:.2f}s)")
    if recovery_rows is not None:
        print(
            "\n"
            + format_table(
                ["recovery", "makespan s", "vs fault-free"],
                [
                    [strategy, makespan, f"{degradation:+.1%}"]
                    for strategy, makespan, degradation in recovery_rows
                ],
                title=(
                    f"group {plan.crash_group} lost "
                    f"{100 * plan.crash_fraction:.0f}% into the run "
                    f"({dynamic.n_groups} groups)"
                ),
            )
        )
    return 0
