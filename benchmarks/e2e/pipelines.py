"""The two pipeline workloads: ``cesm_table3`` and ``fmo_ladder``.

One *sweep* runs gather -> fit -> MINLP solve -> execute on every block of
the workload, one caller, closed loop.  The timed loop repeats the sweep
until ``--seconds`` have passed; every sweep does identical work, so its
answers must repeat exactly and its wall times sample only the machine.
Every block's wall time is read at the reference host speed (``hostspeed``).
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import NamedTuple

import repro.core.hslb as hslb_module
import repro.minlp.oa as oa_module
from repro.cesm.app import CESMApplication
from repro.core.hslb import HSLBOptimizer
from repro.minlp.linprog import IncrementalLPSolver
from repro.minlp.solution import Status

import catalogue
import hostspeed
from spans import SpanRecorder, summary

MIN_SWEEPS = 3

#: Executed-run replicas behind ``makespan_ratio`` (cheap: simulator only).
QUALITY_REPLICAS = 16

#: Span name -> per-layer metric (ms of self time per sweep).
SPAN_METRICS = {
    "cesm.benchmark": "cesm.benchmark_ms",
    "cesm.execute": "cesm.execute_ms",
    "fmo.benchmark": "fmo.benchmark_ms",
    "fmo.execute": "fmo.execute_ms",
    "core.gather": "core.gather_ms",
    "perf.fit": "perf.fit_ms",
    "core.formulate": "core.formulate_ms",
    "minlp.solve": "minlp.tree_self_ms",
    "minlp.nlp": "minlp.nlp_ms",
    "minlp.lp": "minlp.lp_ms",
    "core.solve": "core.solve_self_ms",
}
#: The span around one block's run; its self time is the unexplained rest
#: (app construction, ``run_from_fits``).
RUN_SPAN = "pipeline.run"


class BlockRun(NamedTuple):
    """One pipeline run of one block."""

    wall: float  # seconds at the reference host speed
    speed: float  # the factor that brought it there
    app: object
    plan: object  # HSLBResult of gather -> fit -> solve
    execution: object  # ExecutionResult of step 4


def blocks_for(workload: str) -> list[catalogue.PipelineBlock]:
    return (
        catalogue.cesm_blocks() if workload == "cesm_table3"
        else catalogue.fmo_blocks()
    )


@contextmanager
def _minlp_spans(rec: SpanRecorder):
    """Spans at the solver's module boundaries, for the traced sweeps: the
    MINLP entry points the pipeline calls, and under them the NLP and LP
    layers (what is left is tree search, cuts and heuristics)."""
    patches = [
        (hslb_module, "solve_minlp_oa", "minlp.solve"),
        (hslb_module, "solve_minlp_nlpbb", "minlp.solve"),
        (oa_module, "solve_nlp", "minlp.nlp"),
        (IncrementalLPSolver, "solve", "minlp.lp"),
    ]
    originals = [getattr(owner, name) for owner, name, _ in patches]
    for (owner, name, span), original in zip(patches, originals):
        setattr(owner, name, rec.wrap(span, original))
    try:
        yield
    finally:
        for (owner, name, _), original in zip(patches, originals):
            setattr(owner, name, original)


def _instrument(app, opt, rec: SpanRecorder) -> None:
    """Spans around each layer's public entry point, on these instances."""
    prefix = "cesm" if isinstance(app, CESMApplication) else "fmo"
    app.benchmark = rec.wrap(f"{prefix}.benchmark", app.benchmark)
    app.formulate = rec.wrap("core.formulate", app.formulate)
    app.execute = rec.wrap(f"{prefix}.execute", app.execute)
    opt.gather = rec.wrap("core.gather", opt.gather)
    opt.fit = rec.wrap("perf.fit", opt.fit)
    opt.solve = rec.wrap("core.solve", opt.solve)


def run_block(block, seed: int, rec: SpanRecorder | None = None):
    """One pipeline run: ``(raw wall seconds, app, plan, execution)``."""
    start = time.perf_counter()
    app = block.make_app()
    opt = HSLBOptimizer(app)
    if rec is not None:
        _instrument(app, opt, rec)
    plan = opt.run(
        block.campaign, block.total_nodes, block.plan_rng(), execute=False
    )
    execution = opt.execute(plan.allocation, block.exec_rng(seed))
    return time.perf_counter() - start, app, plan, execution


def run_sweep(blocks, order, seed: int, meter: hostspeed.SpeedMeter,
              rec: SpanRecorder | None = None) -> dict[str, BlockRun]:
    """Every block once, in ``order``; the probes run outside every span."""
    results = {}
    for i in order:
        block = blocks[i]
        if rec is None:
            wall, *answer = run_block(block, seed)
            speed = meter.factor()
        else:
            with rec.span(RUN_SPAN) as span:
                wall, *answer = run_block(block, seed, rec)
            speed = span["speed"] = meter.factor()
        results[block.key] = BlockRun(wall * speed, speed, *answer)
    return results


# -- correctness ------------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_block(block, app, plan, reference_objective) -> list[str]:
    """Reasons this pipeline run counts as failed (empty: it passed)."""
    why = []
    if plan.solution.status is not Status.OPTIMAL:
        why.append(f"status {plan.solution.status.value}")
    if plan.solver_tier != "oa" or plan.degraded:
        why.append(f"degraded off the oa tier ({plan.solver_tier})")
    alloc, budget = plan.allocation, block.total_nodes
    if isinstance(app, CESMApplication):
        try:
            app.simulator.validate_allocation(alloc)
        except ValueError as exc:
            why.append(f"infeasible allocation: {exc}")
        if alloc["atm"] + alloc["ocn"] > budget:
            why.append("atm + ocn exceeds the node budget")
        if alloc["atm"] not in app.config.atm_allowed:
            why.append(f"atm={alloc['atm']} is not a sweet spot")
        ocean = app.config.ocean_allowed
        if ocean is not None and alloc["ocn"] not in ocean:
            why.append(f"ocn={alloc['ocn']} is not a sweet spot")
    elif alloc.total() > budget:
        why.append("allocation exceeds the node budget")
    models = {name: fit.model for name, fit in plan.fits.items()}
    priced = app.predicted_total(models, alloc)
    if _rel(priced, plan.predicted_total) > 1e-6:
        why.append(
            f"predicted_total {plan.predicted_total!r} re-evaluates to {priced!r}"
        )
    fallback = app.predicted_total(
        models, app.fallback_allocation(models, budget)
    )
    if plan.predicted_total > fallback * (1 + 1e-9):
        why.append(f"worse than the fallback allocation ({fallback!r})")
    if reference_objective is not None and (
        _rel(plan.predicted_total, reference_objective) > 1e-6
    ):
        why.append(
            f"objective {plan.predicted_total!r} differs from reference "
            f"{reference_objective!r}"
        )
    return why


def makespan_ratio(blocks, results, seed: int) -> float:
    """Mean over blocks of executed makespan, HSLB over the app's fallback.

    Both allocations run under the same ``QUALITY_REPLICAS`` seed-derived
    noise streams, so the ratio prices the allocation, not the noise.
    """
    ratios = []
    for block in blocks:
        # A fresh app: the run's own may carry trace wrappers.
        app, plan = block.make_app(), results[block.key].plan
        models = {name: fit.model for name, fit in plan.fits.items()}
        fallback = app.fallback_allocation(models, block.total_nodes)
        ours = theirs = 0.0
        for replica in range(1, QUALITY_REPLICAS + 1):
            ours += app.execute(
                plan.allocation, block.exec_rng(seed, replica)
            ).total_time
            theirs += app.execute(
                fallback, block.exec_rng(seed, replica)
            ).total_time
        ratios.append(ours / theirs)
    return statistics.fmean(ratios)


# -- the workload -----------------------------------------------------------


class Sweeps:
    """The timed loop: per-block seconds of every sweep, answers checked as
    they arrive, full results kept for the last sweep only (so memory does
    not grow with the number of sweeps a fast host fits in)."""

    def __init__(self, blocks, order, seed, reference_objectives) -> None:
        self.blocks, self.order, self.seed = blocks, order, seed
        self.reference = reference_objectives
        self.walls: list[dict[str, float]] = []
        self.plain_s: list[float] = []
        self.speeds: list[float] = []
        self.failures: list[str] = []
        self.answers: dict[str, tuple] = {}
        self.last: dict[str, BlockRun] = {}

    def run(self, seconds: float, rec: SpanRecorder | None = None) -> None:
        """Sweep for ``seconds``.  With a recorder, traced and untraced
        sweeps alternate (so host drift cannot pass for tracing overhead);
        ``walls`` then holds the traced ones, ``plain_s`` the others."""
        begin = time.perf_counter()
        meter = hostspeed.SpeedMeter()
        while (len(self.walls) < MIN_SWEEPS
               or time.perf_counter() - begin < seconds):
            if rec is not None:
                self.last = run_sweep(self.blocks, self.order, self.seed, meter)
                self.plain_s.append(sum(r.wall for r in self.last.values()))
                self._check(self.last)
                rec.round = len(self.walls)
                with _minlp_spans(rec):
                    self.last = run_sweep(
                        self.blocks, self.order, self.seed, meter, rec
                    )
            else:
                self.last = run_sweep(self.blocks, self.order, self.seed, meter)
            self.walls.append({k: r.wall for k, r in self.last.items()})
            self.speeds.extend(r.speed for r in self.last.values())
            self._check(self.last)

    def _check(self, results) -> None:
        for block in self.blocks:
            got = results[block.key]
            why = check_block(
                block, got.app, got.plan, self.reference.get(block.key)
            )
            answer = (got.plan.predicted_total, got.plan.allocation.nodes,
                      got.execution.total_time)
            if self.answers.setdefault(block.key, answer) != answer:
                why.append("answer differs between sweeps of one input")
            self.failures.extend(f"{block.key}: {w}" for w in why[:1])

    @property
    def sweep_s(self) -> list[float]:
        return [sum(w.values()) for w in self.walls]


def run(workload: str, seed: int, seconds: float, trace: bool,
        reference: dict, setup: hostspeed.SetupClock, setup_only: bool = False) -> dict:
    blocks = blocks_for(workload)
    order = catalogue.block_order(seed, len(blocks))
    for block in blocks:  # warm-up: lazy imports, first-call costs
        run_block(block, seed)
    out = setup.done()
    if setup_only:
        return out

    sweeps = Sweeps(
        blocks, order, seed, reference.get("objectives", {}).get(workload, {})
    )
    rec = SpanRecorder(workload) if trace else None
    sweeps.run(seconds, rec)

    sweep_s = sweeps.sweep_s
    rates = [len(blocks) / w for w in sweep_s]
    slowest = max(
        ([w[b.key] for w in sweeps.walls] for b in blocks),
        key=statistics.median,
    )
    plans = [sweeps.last[b.key].plan for b in blocks]
    executions = [sweeps.last[b.key].execution for b in blocks]
    out.update(
        attempted=(len(sweeps.walls) + len(sweeps.plain_s)) * len(blocks),
        failed=len(sweeps.failures),
        failures=sweeps.failures[:20],
        objectives={b.key: p.predicted_total for b, p in zip(blocks, plans)},
        end_to_end={
            "throughput_ops": statistics.median(rates),
            "latency_p50_ms": 1e3 * statistics.median(sweep_s),
            # A sweep's few samples carry no percentile above the median, so
            # the tail is the slowest block's median: the run a caller waits
            # longest for.
            "latency_tail_ms": 1e3 * statistics.median(slowest),
            "makespan_ratio": makespan_ratio(blocks, sweeps.last, seed),
        },
        stats={
            "throughput_ops": summary(rates),
            "latency_p50_ms": summary([1e3 * w for w in sweep_s]),
            "latency_tail_ms": summary([1e3 * w for w in slowest]),
        },
    )
    if trace:
        layers = _span_layers(rec, len(sweep_s))
        layers["core.attributed_pct"] = 100.0 * (
            1.0 - layers["core.other_ms"] / (1e3 * statistics.median(sweep_s))
        )
        layers["host.kernel_ms"] = 1e3 * hostspeed.REFERENCE_S / (
            statistics.median(sweeps.speeds)
        )
        layers["trace_overhead_pct"] = 100.0 * (
            statistics.median(sweep_s) / statistics.median(sweeps.plain_s) - 1.0
        )
        layers.update(_count_layers(layers, plans, executions))
        out["per_layer"] = layers
        out["recorder"] = rec
    return out


def _span_layers(rec: SpanRecorder, n_sweeps: int) -> dict:
    """Median over sweeps of each layer's self ms per sweep, every span read
    at the speed factor of the ``pipeline.run`` it sits under."""
    per_sweep = [
        dict.fromkeys([*SPAN_METRICS, RUN_SPAN], 0.0)
        for _ in range(n_sweeps)
    ]
    for span, self_time in zip(rec.spans, rec.self_times()):
        top = span
        while top["parent"] is not None:
            top = rec.spans[top["parent"]]
        per_sweep[span["round"]][span["name"]] += self_time * top["speed"]
    medians = {
        name: 1e3 * statistics.median(sweep[name] for sweep in per_sweep)
        for name in per_sweep[0]
    }
    layers = {metric: medians[span] for span, metric in SPAN_METRICS.items()}
    layers["core.other_ms"] = medians[RUN_SPAN]
    return layers


def _count_layers(layers, plans, executions) -> dict:
    """Counts of one sweep (they repeat exactly) and ratios built on them."""
    stats = [p.solution.stats for p in plans]
    nodes = sum(s.nodes_explored for s in stats)
    lps = sum(s.lp_solves for s in stats)
    components = sum(len(p.fits) for p in plans)
    solve_ms = sum(
        layers[k] for k in ("minlp.tree_self_ms", "minlp.nlp_ms", "minlp.lp_ms")
    )
    return {
        "perf.fit_components": components,
        "perf.fit_ms_per_component": layers["perf.fit_ms"] / components,
        "minlp.nodes": nodes,
        "minlp.lp_solves": lps,
        "minlp.nlp_solves": sum(s.nlp_solves for s in stats),
        "minlp.cuts": sum(s.cuts_added for s in stats),
        "minlp.solve_ms": solve_ms,
        "minlp.ms_per_node": solve_ms / nodes,
        "minlp.ms_per_lp": layers["minlp.lp_ms"] / lps,
        "core.actual_makespan_s": sum(e.total_time for e in executions),
        "core.pred_err_pct": 100.0 * statistics.fmean(
            abs(p.predicted_total - e.total_time) / e.total_time
            for p, e in zip(plans, executions)
        ),
    }
