"""End-to-end observability: pipeline spans, solver telemetry, provenance.

Uses a scripted two-component application (exact Amdahl timings, optional
injected solver stalls) so the traces are fast and deterministic.
"""

import pytest

from repro.cesm.app import CESMApplication
from repro.cesm.grids import one_degree
from repro.core.builder import AllocationModelBuilder
from repro.core.hslb import HSLBOptimizer
from repro.core.objectives import Objective
from repro.core.spec import Allocation, Application, ExecutionResult
from repro.faults import FaultPlan
from repro.fmo.app import FMOApplication
from repro.fmo.molecules import protein_like
from repro.obs.metrics import REGISTRY
from repro.perf.data import BenchmarkSuite, ComponentBenchmark, ScalingObservation
from repro.perf.fitting import FIT_STARTS
from repro.perf.trf import _HANDOFF_LANES
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng

MODELS = {
    "alpha": PerformanceModel(a=400.0, d=2.0),
    "beta": PerformanceModel(a=900.0, d=1.0),
}


class TwoComponentApp(Application):
    def __init__(self, solver_stall=()):
        self.fault_plan = (
            FaultPlan(seed=0, solver_stall=tuple(solver_stall))
            if solver_stall
            else None
        )

    @property
    def component_names(self):
        return ("alpha", "beta")

    def benchmark(self, node_counts, rng, *, attempt=0, probe_extremes=True):
        suite = BenchmarkSuite()
        for count in node_counts:
            for name, model in MODELS.items():
                suite.add(
                    ComponentBenchmark(
                        name, [ScalingObservation(count, float(model.time(count)))]
                    )
                )
        return suite

    def formulate(self, models, total_nodes):
        b = AllocationModelBuilder("two-comp", total_nodes)
        for name in self.component_names:
            b.add_component(name, models[name])
        b.limit_total_nodes()
        b.set_objective(Objective.MIN_MAX)
        return b.build()

    def allocation_from_solution(self, solution):
        return Allocation(
            {
                name: int(round(solution.values[f"n_{name}"]))
                for name in self.component_names
            }
        )

    def execute(self, allocation, rng):
        times = {
            name: float(MODELS[name].time(allocation[name]))
            for name in self.component_names
        }
        return ExecutionResult(component_times=times, total_time=max(times.values()))


def _counter(name, **labels):
    return REGISTRY.counter(name).value(**labels)


def test_traced_run_covers_every_pipeline_stage(tracer):
    HSLBOptimizer(TwoComponentApp()).run([16, 32, 64], 64, default_rng(0))
    root = tracer.find("hslb.run")
    assert root is not None
    stages = [c.name for c in root.children]
    assert stages == ["hslb.gather", "hslb.fit", "hslb.solve", "hslb.execute"]
    # The solve stage carries tier/status provenance tags and the MINLP span.
    solve = root.find("hslb.solve")
    assert solve.tags["tier"] == "oa"
    assert solve.tags["status"] in ("optimal", "feasible")
    assert solve.find("minlp.oa") is not None
    # Per-component fits show up under the fit stage.
    fit = root.find("hslb.fit")
    components = sorted(
        c.tags["component"] for c in fit.children if c.name == "fit.component"
    )
    assert components == ["alpha", "beta"]
    assert all(
        c.tags["points"] == 3 and "r_squared" in c.tags
        for c in fit.children if c.name == "fit.component"
    )
    # The fit stage says over how many starts it ran, and how many lockstep
    # ticks they took: two components' ten starts tick until no more than
    # _HANDOFF_LANES are live.
    assert "driver" not in fit.tags
    assert 2 * FIT_STARTS > _HANDOFF_LANES
    assert fit.tags["lanes"] == 2 * FIT_STARTS
    assert 0 < fit.tags["ticks"] < 2000

    # Eight FMO fragments are 40 starts of one point count, and the ticks
    # are the lockstep iterations of the slowest start.
    tracer.reset()
    system = protein_like(8, default_rng(1))
    HSLBOptimizer(FMOApplication(system)).fit(
        HSLBOptimizer(FMOApplication(system)).gather([1, 2, 4, 8, 16, 32], default_rng(2))
    )
    fit = tracer.find("hslb.fit")
    assert fit.tags["lanes"] == 8 * FIT_STARTS
    assert 0 < fit.tags["ticks"] < 2000
    assert sum(c.name == "fit.component" for c in fit.children) == 8


def test_oa_span_records_iteration_events(tracer):
    HSLBOptimizer(TwoComponentApp()).run(
        [16, 32, 64], 64, default_rng(0), execute=False
    )
    oa = tracer.find("minlp.oa")
    iterations = [e for e in oa.events if e["name"] == "oa.iteration"]
    assert iterations, "the lazy-cut callback must emit per-iteration events"
    assert all("cuts" in e and "subproblem" in e for e in iterations)
    finished = [e for e in oa.events if e["name"] == "solver.finished"]
    assert len(finished) == 1
    assert finished[0]["algorithm"] == "oa"


def test_solver_telemetry_counters_accumulate(tracer):
    before = _counter("solver_nlp_solves_total", algorithm="oa")
    runs_before = _counter("hslb_pipeline_runs_total")
    HSLBOptimizer(TwoComponentApp()).run(
        [16, 32, 64], 64, default_rng(0), execute=False
    )
    assert _counter("solver_nlp_solves_total", algorithm="oa") > before
    assert _counter("hslb_pipeline_runs_total") == runs_before + 1
    assert REGISTRY.histogram("solver_wall_seconds").count(
        algorithm="oa", status="optimal"
    ) >= 1


def test_degradation_chain_emits_one_event_per_transition(tracer):
    """A stalled OA hands over to the exact direct answer when the app has
    one (CESM), else to the greedy fallback: one event, one counter bump."""
    cesm_models = {c: truth.model for c, truth in one_degree().ground_truth.items()}
    for app, models, fallback in (
        (
            CESMApplication(one_degree(), faults=FaultPlan(solver_stall=("oa",))),
            cesm_models,
            "direct",
        ),
        (TwoComponentApp(solver_stall=("oa",)), MODELS, "greedy"),
    ):
        tracer.reset()
        opt = HSLBOptimizer(app)
        labels = {"from_tier": "oa", "to_tier": fallback}
        before = _counter("hslb_degradations_total", **labels)
        opt.solve(models, 64)
        assert opt.last_provenance.tier == fallback
        # Counters: exactly one bump for the one transition.
        assert _counter("hslb_degradations_total", **labels) == before + 1
        # Trace: one solver.degraded event, carrying the reason.
        solve = tracer.find("hslb.solve")
        degraded = [e for e in solve.events if e["name"] == "solver.degraded"]
        assert [(e["from_tier"], e["to_tier"]) for e in degraded] == [("oa", fallback)]
        assert degraded[0]["reason"] == "injected solver stall"
        # The injected stall was recorded as a fault too.
        stalls = [e for e in solve.events if e["name"] == "fault.injected"]
        assert len(stalls) == 1


def test_degradation_event_carries_the_triggering_exception(tracer, monkeypatch):
    import repro.core.hslb as hslb

    def failing(*args, **kwargs):
        raise RuntimeError("synthetic oa blow-up")

    monkeypatch.setattr(hslb, "solve_minlp_oa", failing)
    opt = HSLBOptimizer(TwoComponentApp())
    result = opt.run([16, 32, 64], 64, default_rng(0), execute=False)
    assert result.solver_tier == "greedy"
    solve = tracer.find("hslb.solve")
    [event] = [e for e in solve.events if e["name"] == "solver.degraded"]
    assert event["from_tier"] == "oa" and event["to_tier"] == "greedy"
    assert event["status"] == "error"
    assert event["reason"] == "RuntimeError: synthetic oa blow-up"


def test_fault_plan_records_injected_gather_faults():
    plan = FaultPlan(seed=3, fail_rate=0.9)
    before = _counter("faults_injected_total", kind="failure", stage="gather")
    fired = 0
    for nodes in (8, 16, 32, 64, 128):
        try:
            plan.check_benchmark("probe", nodes, 0)
        except Exception:
            fired += 1
    assert fired > 0
    assert (
        _counter("faults_injected_total", kind="failure", stage="gather")
        == before + fired
    )


def test_straggler_fires_are_counted():
    plan = FaultPlan(seed=1, straggler_rate=0.8)
    before = _counter("faults_injected_total", kind="straggler", stage="gather")
    fired = sum(
        1
        for unit in range(20)
        if plan.straggler_multiplier("probe", unit, 64) > 1.0
    )
    assert fired > 0
    assert (
        _counter("faults_injected_total", kind="straggler", stage="gather")
        == before + fired
    )


def test_disabled_tracer_changes_nothing_about_results():
    """Determinism contract: tracing must not perturb the pipeline output."""
    from repro.obs.trace import get_tracer

    t = get_tracer()
    assert not t.enabled
    plain = HSLBOptimizer(TwoComponentApp()).run(
        [16, 32, 64], 64, default_rng(0), execute=False
    )
    t.reset()
    t.enable()
    try:
        traced = HSLBOptimizer(TwoComponentApp()).run(
            [16, 32, 64], 64, default_rng(0), execute=False
        )
    finally:
        t.disable()
        t.reset()
    assert traced.allocation.nodes == plain.allocation.nodes
    assert traced.solution.objective == pytest.approx(plain.solution.objective)
