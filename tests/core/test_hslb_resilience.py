"""Tests for the resilient gather / solver chain / crash recovery paths."""

import pytest

from repro.cesm.app import CESMApplication
from repro.cesm.grids import one_degree
from repro.core.builder import AllocationModelBuilder
from repro.cesm.layouts import Layout
from repro.core.hslb import (
    DIRECT_GAP_TOL,
    GATHER_MAX_RETRIES,
    GatherDegradedError,
    HSLBOptimizer,
)
from repro.core.objectives import Objective
from repro.core.spec import Allocation, Application, ExecutionResult
from repro.faults import BenchmarkFault, BenchmarkRunError, FaultPlan
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.solution import Status
from repro.perf.data import BenchmarkSuite, ComponentBenchmark, ScalingObservation
from repro.perf.fitting import fit_suite
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng

MODELS = {
    "alpha": PerformanceModel(a=400.0, d=2.0),
    "beta": PerformanceModel(a=900.0, d=1.0),
}


class ScriptedApp(Application):
    """Two Amdahl components with scripted gather failures.

    ``script`` maps (node_count, attempt) -> fault kind; those benchmark
    runs raise, everything else returns exact (noise-free) timings.
    """

    def __init__(self, script=None, solver_stall=()):
        self.script = dict(script or {})
        self.fault_plan = FaultPlan(seed=0, solver_stall=tuple(solver_stall))
        self.executed = []

    @property
    def component_names(self):
        return ("alpha", "beta")

    def benchmark(self, node_counts, rng):
        suite = BenchmarkSuite()
        for count in node_counts:
            for name, model in MODELS.items():
                suite.add(
                    ComponentBenchmark(
                        name, [ScalingObservation(count, float(model.time(count)))]
                    )
                )
        return suite

    def benchmark_run(self, node_count, rng, *, attempt=0, probe_extremes=False):
        kind = self.script.get((int(node_count), int(attempt)))
        if kind is not None:
            raise BenchmarkRunError(
                BenchmarkFault(kind, "scripted", int(node_count), int(attempt))
            )
        return self.benchmark([int(node_count)], rng)

    def formulate(self, models, total_nodes):
        b = AllocationModelBuilder("scripted", total_nodes)
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
        self.executed.append(allocation)
        times = {
            name: float(MODELS[name].time(allocation[name]))
            for name in self.component_names
        }
        return ExecutionResult(component_times=times, total_time=max(times.values()))


def test_gather_retries_transient_failure():
    app = ScriptedApp(script={(32, 0): "failure", (32, 1): "timeout"})
    opt = HSLBOptimizer(app)
    suite = opt.gather([16, 32, 64], default_rng(0))
    # The point survived: two retries, then success.
    assert sorted(o.nodes for o in suite["alpha"]) == [16, 32, 64]
    report = opt.last_gather_report
    assert report.retried_counts == (32,)
    assert report.dropped_counts == ()
    [record] = report.records
    assert record.attempts == 3
    assert record.kinds == ("failure", "timeout")
    # Exponential backoff: 2s after attempt 0, 4s after attempt 1.
    assert record.backoff_seconds == pytest.approx(6.0)
    # Surviving observations carry their retry count.
    recovered = [o for o in suite["alpha"] if o.nodes == 32]
    assert all(o.retries == 2 for o in recovered)
    assert all(o.retries == 0 for o in suite["alpha"] if o.nodes != 32)


def test_gather_drops_permanent_point_and_warns():
    app = ScriptedApp(script={(32, a): "permanent" for a in range(5)})
    opt = HSLBOptimizer(app)
    suite = opt.gather([16, 32, 64], default_rng(0))
    assert sorted(o.nodes for o in suite["alpha"]) == [16, 64]
    report = opt.last_gather_report
    assert report.dropped_counts == (32,)
    # Permanent faults do not burn retries: one attempt, no backoff.
    [record] = report.records
    assert record.attempts == 1
    assert record.backoff_seconds == 0.0
    assert any("thinned" in w for w in report.warnings)
    # The thinned campaign still fits and solves.
    fits = opt.fit(suite, default_rng(0))
    allocation, solution = opt.solve(fits, 64)
    assert solution.status.is_ok


def test_gather_exhausted_retries_drop_the_point():
    app = ScriptedApp(
        script={(32, a): "failure" for a in range(GATHER_MAX_RETRIES + 1)}
    )
    opt = HSLBOptimizer(app)
    suite = opt.gather([16, 32, 64], default_rng(0))
    assert sorted(o.nodes for o in suite["alpha"]) == [16, 64]
    [record] = opt.last_gather_report.records
    assert record.outcome == "dropped"
    assert record.attempts == 4  # initial try + 3 retries
    # Backoff accrues only before an attempt that actually happens.
    assert record.backoff_seconds == pytest.approx(2.0 + 4.0 + 8.0)


def test_gather_retry_that_lands_on_the_last_attempt_recovers():
    app = ScriptedApp(script={(32, a): "failure" for a in range(GATHER_MAX_RETRIES)})
    opt = HSLBOptimizer(app)
    suite = opt.gather([16, 32, 64], default_rng(0))
    assert sorted(o.nodes for o in suite["alpha"]) == [16, 32, 64]
    [record] = opt.last_gather_report.records
    assert record.outcome == "recovered"
    assert record.attempts == 4


def test_gather_degraded_error_when_unfittable():
    app = ScriptedApp(
        script={(c, a): "permanent" for c in (32, 64) for a in range(5)}
    )
    opt = HSLBOptimizer(app)
    with pytest.raises(GatherDegradedError) as exc:
        opt.gather([16, 32, 64], default_rng(0))
    err = exc.value
    assert set(err.reasons) == {"alpha", "beta"}
    assert "fitter needs >= 2" in err.reasons["alpha"]
    assert err.report.dropped_counts == (32, 64)


def test_gather_degraded_error_when_everything_dies():
    app = ScriptedApp(
        script={(c, a): "permanent" for c in (16, 32, 64) for a in range(5)}
    )
    with pytest.raises(GatherDegradedError, match="no surviving benchmark runs"):
        HSLBOptimizer(app).gather([16, 32, 64], default_rng(0))


def test_failed_gather_does_not_leave_the_previous_report_behind():
    app = ScriptedApp(script={(32, a): "permanent" for a in range(5)})
    opt = HSLBOptimizer(app)
    opt.gather([16, 32, 64], default_rng(0))
    assert opt.last_gather_report.dropped_counts == (32,)
    app.script = {(c, a): "permanent" for c in (16, 32, 64) for a in range(5)}
    with pytest.raises(GatherDegradedError) as exc:
        opt.gather([16, 32, 64], default_rng(0))
    assert opt.last_gather_report is exc.value.report
    assert opt.last_gather_report.dropped_counts == (16, 32, 64)


def test_failed_solve_does_not_leave_the_previous_provenance_behind():
    opt = HSLBOptimizer(ScriptedApp())
    opt.solve(MODELS, 64)
    assert opt.last_provenance.tier == "oa"
    with pytest.raises(KeyError):
        opt.solve({"alpha": MODELS["alpha"]}, 64)  # no beta
    assert opt.last_provenance is None


def test_clean_gather_uses_single_call_path():
    """With no fault plan, gather must stay on the original one-shot
    benchmark call — the RNG stream (and every Table III number) depends
    on it."""
    app = ScriptedApp()
    app.fault_plan = None
    calls = []
    original = app.benchmark

    def counting(counts, rng):
        calls.append(tuple(counts))
        return original(counts, rng)

    app.benchmark = counting
    opt = HSLBOptimizer(app)
    opt.gather([16, 32, 64], default_rng(0))
    assert calls == [(16, 32, 64)]
    assert not opt.last_gather_report.degraded


def _ground_truth(config):
    return {c: truth.model for c, truth in config.ground_truth.items()}


def test_solver_chain_falls_back_to_the_direct_answer():
    """A stalled OA hands CESM's solve to the exact layout scan: an
    optimal answer, equal to cold OA's on the same problem."""
    app = CESMApplication(one_degree(), faults=FaultPlan(solver_stall=("oa",)))
    opt = HSLBOptimizer(app)
    models = _ground_truth(one_degree())
    allocation, solution = opt.solve(models, 512)
    prov = opt.last_provenance
    assert prov.tier == "direct" and prov.degraded
    assert [a.tier for a in prov.attempts] == ["oa", "direct"]
    assert [a.status for a in prov.attempts] == ["stalled", "ok"]
    assert prov.direct_gap is None  # no MINLP answer to certify against
    assert solution.status is Status.OPTIMAL
    cold = solve_minlp_oa(app.formulate(models, 512)).require_ok()
    assert solution.objective == pytest.approx(cold.objective, rel=1e-9)
    assert solution.objective == app.predicted_total(models, allocation)


def test_solver_chain_greedy_fallback_records_tier():
    """Without a direct answer, a stalled OA falls to the greedy."""
    app = ScriptedApp(solver_stall=("oa",))
    opt = HSLBOptimizer(app)
    suite = opt.gather([16, 32, 64], default_rng(0))
    fits = opt.fit(suite, default_rng(0))
    allocation, solution = opt.solve(fits, 64)
    prov = opt.last_provenance
    assert prov.tier == "greedy"
    assert [a.tier for a in prov.attempts] == ["oa"]
    assert prov.reason == "OA stalled"
    assert solution.status.is_ok  # FEASIBLE: usable, not certified optimal
    assert "fallback" in solution.message
    # The fallback allocation is feasible and near the MINLP optimum for
    # this convex min-max instance (greedy is exact up to integrality).
    assert allocation.total() <= 64
    result = opt.run_from_fits(fits, 64, default_rng(0))
    assert result.solver_tier == "greedy"
    assert result.degraded


def test_tsync_is_answered_by_the_scan_without_oa(monkeypatch):
    """Tsync rows are nonconvex: OA is skipped, not failed, and the exact
    scan's answer is the allocation (not a degradation)."""
    import repro.core.hslb as hslb

    def refuse(*args, **kwargs):
        raise AssertionError("OA must not run on a Tsync model")

    monkeypatch.setattr(hslb, "solve_minlp_oa", refuse)
    app = CESMApplication(one_degree(), tsync=1.0)
    opt = HSLBOptimizer(app)
    models = _ground_truth(one_degree())
    allocation, solution = opt.solve(models, 128)
    prov = opt.last_provenance
    assert prov.tier == "direct" and not prov.degraded
    assert [a.tier for a in prov.attempts] == ["direct"]
    assert solution.status is Status.OPTIMAL
    gap = models["ice"].time(allocation["ice"]) - models["lnd"].time(allocation["lnd"])
    assert abs(gap) <= 1.0


def test_tsync_off_the_hybrid_layout_keeps_oa():
    """Only layout 1 has Tsync rows, so layouts 2 and 3 stay convex: OA
    answers them, certified by the scan."""
    for layout in (Layout.SEQUENTIAL_GROUP, Layout.FULLY_SEQUENTIAL):
        app = CESMApplication(one_degree(), layout=layout, tsync=5.0)
        assert not app.requires_nonconvex_solver
        opt = HSLBOptimizer(app)
        opt.solve(_ground_truth(one_degree()), 256)
        assert opt.last_provenance.tier == "oa"
        assert abs(opt.last_provenance.direct_gap) <= DIRECT_GAP_TOL
    assert CESMApplication(one_degree(), tsync=5.0).requires_nonconvex_solver


def test_run_threads_provenance_and_report():
    app = ScriptedApp(script={(32, 0): "failure"})
    opt = HSLBOptimizer(app)
    result = opt.run([16, 32, 64], 64, default_rng(0))
    assert result.gather_report is not None
    assert result.gather_report.retried_counts == (32,)
    assert result.provenance is not None
    assert result.solver_tier == "oa"
    assert result.degraded  # gather had to retry
    assert result.execution is not None


def test_cesm_crash_recovery_end_to_end():
    plan = FaultPlan(seed=11, crash_component="ocn", crash_fraction=0.5)
    app = CESMApplication(one_degree(), faults=plan)
    opt = HSLBOptimizer(app)
    result = opt.run([32, 64, 128, 256], 128, default_rng(2))
    rec = result.recovery
    assert rec is not None
    assert rec.component == "ocn"
    assert rec.lost_nodes == rec.original_allocation["ocn"]
    assert rec.wasted_seconds > 0
    # The re-planned allocation fits the surviving machine.
    surviving = 128 - rec.lost_nodes
    assert result.allocation["atm"] + result.allocation["ocn"] <= surviving
    assert result.execution.metadata.get("recovered_from_crash")
    # The restart penalty is charged on both predicted and actual totals.
    assert result.predicted_total > float(result.solution.objective)
    assert result.degraded
    # The crash fires once: the re-run completed on the survivors.
    assert "recovery" in rec.summary()


def test_fault_free_cesm_pipeline_is_unchanged():
    """A CESM app without a fault plan must report a clean, non-degraded
    run with the first-choice tier."""
    app = CESMApplication(one_degree())
    result = HSLBOptimizer(app).run([32, 64, 128, 256], 128, default_rng(2))
    assert result.recovery is None
    assert result.solver_tier == "oa"
    assert not result.degraded
    assert not result.gather_report.degraded


def test_fit_aborts_on_a_starved_component():
    opt = HSLBOptimizer(ScriptedApp())
    suite = opt.gather([16, 32, 64], default_rng(0))
    # Starve one component below the fitter's minimum.
    crippled = BenchmarkSuite()
    crippled.add(ComponentBenchmark("alpha", list(suite["alpha"])))
    crippled.add(ComponentBenchmark("beta", [list(suite["beta"])[0]]))
    with pytest.raises(ValueError, match="'beta' is unfittable"):
        opt.fit(crippled, default_rng(0))


def test_stragglers_are_pruned_before_fitting():
    suite = BenchmarkSuite()
    counts = (16, 32, 64, 128)
    good = [ScalingObservation(c, float(MODELS["alpha"].time(c))) for c in counts]
    bad = ScalingObservation(32, 40 * float(MODELS["alpha"].time(32)), status="straggler")
    suite.add(ComponentBenchmark("alpha", good + [bad]))
    suite.add(
        ComponentBenchmark(
            "beta", [ScalingObservation(c, float(MODELS["beta"].time(c))) for c in counts]
        )
    )
    app = ScriptedApp()
    fits = HSLBOptimizer(app).fit(suite, default_rng(0))
    # With the inflated point pruned, the noise-free fit is near-exact.
    assert fits["alpha"].model.time(64) == pytest.approx(
        float(MODELS["alpha"].time(64)), rel=1e-3
    )
    kept = fit_suite(suite, rng=default_rng(0))  # the straggler left in
    assert abs(kept["alpha"].model.time(64) - float(MODELS["alpha"].time(64))) > (
        abs(fits["alpha"].model.time(64) - float(MODELS["alpha"].time(64)))
    )


def test_fmo_pipeline_crash_recovery_metadata():
    from repro.fmo.app import FMOApplication
    from repro.fmo.molecules import water_cluster

    plan = FaultPlan(seed=3, crash_group=0, crash_fraction=0.4)
    app = FMOApplication(water_cluster(6, default_rng(1)), faults=plan)
    result = HSLBOptimizer(app).run([1, 2, 4, 8], 48, default_rng(5))
    meta = result.execution.metadata
    assert meta["crash_group"] == 0
    assert meta["recovery_strategy"] == "replan"
    assert meta["fault_free_makespan"] > 0
    assert result.execution.total_time >= meta["fault_free_makespan"] * 0.999


def test_the_e2e_harness_finds_both_solver_names():
    """The ledger's traced pass (``benchmarks/e2e/pipelines.py``) wraps
    ``solve_minlp_oa`` and ``solve_minlp_nlpbb`` on this module; the chain
    must keep calling OA through the module global so the wrap sees it."""
    import repro.core.hslb as hslb

    assert callable(hslb.solve_minlp_oa) and callable(hslb.solve_minlp_nlpbb)
