"""``hslb optimize`` and ``hslb export``: the paper pipeline on a CESM setup.

Both name a CESM application with the same three flags and gather and fit
the same way; one solves and executes, the other dumps the MINLP as AMPL.
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
    read_user_file,
    tracing,
)
from repro.obs.trace import span
from repro.util.rng import default_rng


def _add_application_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--resolution",
        choices=("1deg", "eighth"),
        default="1deg",
        help="CESM configuration",
    )
    parser.add_argument("--nodes", type=int, required=True, help="machine size")
    parser.add_argument(
        "--layout", type=int, choices=(1, 2, 3), default=1, help="Figure 1 layout"
    )


def register(sub) -> None:
    opt = sub.add_parser("optimize", help="run HSLB on a CESM configuration")
    _add_application_args(opt)
    opt.add_argument(
        "--free-ocean",
        action="store_true",
        help="drop the hard-coded ocean node-count list (1/8 degree only)",
    )
    opt.add_argument(
        "--tsync",
        type=float,
        default=None,
        help="ice/land synchronization tolerance in seconds (default: off)",
    )
    opt.add_argument(
        "--benchmarks",
        type=int,
        nargs="+",
        default=None,
        help="total node counts for the gather step",
    )
    opt.add_argument(
        "--auto-campaign",
        action="store_true",
        help="plan the gather node counts per §III-C (memory floor to "
        "machine cap, geometric spacing) instead of using the defaults",
    )
    opt.add_argument(
        "--compare-manual",
        action="store_true",
        help="also run the emulated manual expert and compare",
    )
    opt.add_argument(
        "--save-benchmarks",
        metavar="FILE",
        default=None,
        help="persist the gather campaign's timings as JSON",
    )
    opt.add_argument(
        "--load-benchmarks",
        metavar="FILE",
        default=None,
        help="skip the gather step and reuse a saved campaign (§III-F)",
    )
    add_json_arg(opt)
    add_trace_out_arg(opt, "the pipeline run")
    add_fault_args(opt)
    opt.add_argument(
        "--crash-component",
        choices=("lnd", "ice", "atm", "ocn"),
        default=None,
        help="lose this component's nodes mid-run and re-plan on survivors",
    )
    opt.set_defaults(run=_cmd_optimize)

    exp = sub.add_parser("export", help="emit the allocation MINLP as an AMPL model")
    _add_application_args(exp)
    exp.add_argument(
        "-o", "--output", default=None, help="output file (default: stdout)"
    )
    exp.set_defaults(run=_cmd_export)


def _application(
    args: argparse.Namespace, *, free_ocean: bool = False, **app_kwargs: object
):
    """The CESM application ``--resolution`` / ``--layout`` name."""
    from repro.cesm.app import CESMApplication
    from repro.cesm.grids import eighth_degree, one_degree
    from repro.cesm.layouts import Layout

    if args.resolution == "1deg":
        if free_ocean:
            raise UsageError("--free-ocean only applies to the 1/8-degree setup")
        config = one_degree()
    else:
        config = eighth_degree(constrained_ocean=not free_ocean)
    return CESMApplication(config, layout=Layout(args.layout), **app_kwargs)


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.cesm.layouts import Layout
    from repro.core.hslb import HSLBOptimizer
    from repro.core.report import (
        allocation_table,
        comparison_table,
        resilience_summary,
        speedup_summary,
    )
    from repro.experiments.paper_data import BENCHMARK_CAMPAIGN

    if args.nodes < 2:
        raise UsageError(f"--nodes must be >= 2, got {args.nodes}")
    # Chatter goes to stderr through the facade, so stdout carries exactly
    # the report (one JSON document under --json) and pipelines can parse it.
    plan = fault_plan(args, crash_component=args.crash_component)
    app = _application(
        args, free_ocean=args.free_ocean, tsync=args.tsync, faults=plan
    )
    config = app.config
    if args.auto_campaign:
        from repro.cesm.campaign import plan_campaign

        cap = max(args.nodes * 4, args.nodes + 1)
        bench = list(plan_campaign(config, max_nodes=min(cap, config.machine_nodes)))
        log.info(f"planned gather campaign: {bench}")
    else:
        bench = args.benchmarks or list(BENCHMARK_CAMPAIGN[args.resolution])
    rng = default_rng(args.seed)

    optimizer = HSLBOptimizer(app)
    with tracing(args.trace_out):
        with span("cli.optimize", config=config.name, nodes=int(args.nodes)):
            if args.load_benchmarks:
                from repro.perf.io import suite_from_dict

                suite = read_user_file(
                    args.load_benchmarks, lambda text: suite_from_dict(json.loads(text))
                )
                log.debug(f"benchmark campaign loaded from {args.load_benchmarks}")
            else:
                suite = optimizer.gather(bench, rng)
            if args.save_benchmarks:
                from repro.perf.io import save_suite

                save_suite(suite, args.save_benchmarks)
                log.info(f"benchmark campaign saved to {args.save_benchmarks}")
            fits = optimizer.fit(suite, rng)
            result = optimizer.run_from_fits(fits, args.nodes, rng)
    # The manual expert runs once, after the pipeline, for either output.
    manual = None
    if args.compare_manual and app.layout is Layout.HYBRID:
        from repro.cesm.manual import manual_optimization

        manual = manual_optimization(app.simulator, args.nodes, rng)
        improvement = speedup_summary(manual.execution, result).get(
            "improvement_pct", 0.0
        )
    stats = result.solution.stats
    if args.json:
        doc = {
            "config": config.name,
            "nodes": int(args.nodes),
            "layout": int(args.layout),
            "allocation": {k: int(v) for k, v in result.allocation.items()},
            "predicted_times": {
                k: float(v) for k, v in result.predicted_times.items()
            },
            "predicted_total": float(result.predicted_total),
            "actual_total": (
                None if result.actual_total is None else float(result.actual_total)
            ),
            "prediction_error": (
                None
                if result.prediction_error is None
                else float(result.prediction_error)
            ),
            "degraded": result.degraded,
            "solver": {
                "status": result.solution.status.value,
                "tier": result.solver_tier,
                "nodes_explored": int(stats.nodes_explored),
                "nlp_solves": int(stats.nlp_solves),
                "cuts_added": int(stats.cuts_added),
                "wall_time": float(stats.wall_time),
            },
        }
        if plan is not None:
            doc["fault_plan"] = plan.describe()
        if manual is not None:
            doc["manual"] = {
                "allocation": {k: int(v) for k, v in manual.allocation.items()},
                "total": float(manual.execution.total_time),
                "executions_burned": int(manual.executions_burned),
                "improvement_pct": float(improvement),
            }
        print(json.dumps(doc, indent=2))
        return 0
    title = f"{config.name} @ {args.nodes} nodes (layout {args.layout})"
    if manual is not None:
        print(comparison_table(manual.allocation, manual.execution, result, title=title))
        print(
            f"\nHSLB improvement over manual: {improvement:.1f}% "
            f"(manual burned {manual.executions_burned} trial executions)"
        )
    else:
        print(allocation_table(result, title=title))
    print(
        f"\nsolver: {result.solution.status.value}, "
        f"{stats.nodes_explored} B&B nodes, {stats.nlp_solves} NLP solves, "
        f"{stats.cuts_added} OA cuts, {stats.wall_time:.2f}s"
    )
    if plan is not None:
        print("\n" + resilience_summary(result))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Benchmark, fit, and emit the Table-I MINLP as AMPL (the paper's
    production artifact, §V: 'The AMPL code in HSLB is executed remotely via
    Python script on NEOS server')."""
    from repro.core.hslb import HSLBOptimizer
    from repro.experiments.paper_data import BENCHMARK_CAMPAIGN
    from repro.minlp.ampl_export import problem_to_ampl

    app = _application(args)
    optimizer = HSLBOptimizer(app)
    rng = default_rng(args.seed)
    suite = optimizer.gather(BENCHMARK_CAMPAIGN[args.resolution], rng)
    fits = optimizer.fit(suite, rng)
    problem = app.formulate({k: f.model for k, f in fits.items()}, args.nodes)
    text = problem_to_ampl(problem)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"AMPL model written to {args.output}")
    else:
        print(text)
    return 0
