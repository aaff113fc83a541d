"""Manual-baseline tests and the full HSLB-on-CESM integration test."""

import pytest

from repro.cesm.app import CESMApplication
from repro.cesm.grids import eighth_degree, one_degree
from repro.cesm.layouts import Layout
from repro.cesm.manual import manual_optimization
from repro.cesm.simulator import CESMSimulator
from repro.core.hslb import HSLBOptimizer
from repro.core.report import allocation_table, comparison_table, speedup_summary
from repro.minlp.solution import Status
from repro.util.rng import default_rng


def test_manual_optimization_produces_valid_layout(rng):
    sim = CESMSimulator(one_degree())
    res = manual_optimization(sim, 128, rng)
    sim.validate_allocation(res.allocation)
    assert res.allocation["atm"] + res.allocation["ocn"] <= 128
    assert 1 <= res.executions_burned <= 8
    assert res.candidates_tried >= 1
    assert res.execution.total_time > 0


def test_manual_optimization_iteration_budget(rng):
    sim = CESMSimulator(one_degree())
    res = manual_optimization(sim, 512, rng, max_iterations=3)
    assert res.executions_burned <= 3


def test_manual_requires_layout1(rng):
    sim = CESMSimulator(one_degree(), layout=Layout.FULLY_SEQUENTIAL)
    with pytest.raises(ValueError, match="layout 1"):
        manual_optimization(sim, 128, rng)


def test_manual_result_close_to_paper_at_128(rng):
    """Paper Table III: manual total at 1deg/128 was 416 s; the emulated
    expert should land in that neighbourhood (not wildly better/worse)."""
    sim = CESMSimulator(one_degree())
    res = manual_optimization(sim, 128, rng)
    assert 350 <= res.execution.total_time <= 520


# --- full pipeline integration ----------------------------------------------


def test_hslb_pipeline_1deg_128(rng):
    app = CESMApplication(one_degree())
    opt = HSLBOptimizer(app)
    result = opt.run([32, 64, 128, 512, 2048], 128, rng)
    assert result.solution.status is Status.OPTIMAL
    # Shape assertions mirroring Table III block 1:
    assert result.allocation["atm"] + result.allocation["ocn"] <= 128
    assert 380 <= result.predicted_total <= 450   # paper: 410.6
    assert 380 <= result.actual_total <= 460      # paper: 425.2
    # Prediction error small (paper: |411-425|/425 ~ 3.4%).
    assert result.prediction_error < 0.10
    # R^2 "very close to 1 for each component".
    for name, fit in result.fits.items():
        assert fit.r_squared > 0.97, name


def test_hslb_beats_or_matches_manual_1deg_128():
    rng = default_rng(11)
    app = CESMApplication(one_degree())
    manual = manual_optimization(app.simulator, 128, default_rng(12))
    result = HSLBOptimizer(app).run([32, 64, 128, 512, 2048], 128, rng)
    # HSLB should be at least competitive with the expert (within noise).
    assert result.actual_total <= manual.execution.total_time * 1.05


def test_hslb_pipeline_eighth_8192(rng):
    app = CESMApplication(eighth_degree())
    opt = HSLBOptimizer(app)
    result = opt.run([2048, 4096, 8192, 16384, 32768], 8192, rng)
    assert result.solution.status is Status.OPTIMAL
    # Ocean forced onto the hard-coded list (<= 8192 -> max 6124).
    assert result.allocation["ocn"] in (480, 512, 2356, 3136, 4564, 6124)
    # Paper: predicted 3390, actual 3489.
    assert 3000 <= result.predicted_total <= 3800
    assert 3000 <= result.actual_total <= 3900


def test_unconstrained_ocean_improves_32768():
    """The §IV-B headline: dropping the ocean constraint cuts ~25% at 32768."""
    bench = [2048, 4096, 8192, 16384, 32768]
    con = HSLBOptimizer(CESMApplication(eighth_degree())).run(
        bench, 32768, default_rng(5)
    )
    unc = HSLBOptimizer(CESMApplication(eighth_degree(constrained_ocean=False))).run(
        bench, 32768, default_rng(5)
    )
    assert unc.predicted_total < con.predicted_total * 0.85
    assert unc.actual_total < con.actual_total * 0.88
    assert unc.allocation["ocn"] not in (480, 512, 2356, 3136, 4564, 6124, 19460)


def test_pipeline_steps_reusable(rng):
    """Gather once, reuse fits across machine sizes (§III-F note)."""
    app = CESMApplication(one_degree())
    opt = HSLBOptimizer(app)
    suite = opt.gather([32, 64, 128, 512, 2048], rng)
    fits = opt.fit(suite, rng)
    r128 = opt.run_from_fits(fits, 128, rng, execute=False)
    r512 = opt.run_from_fits(fits, 512, rng, execute=False)
    assert r128.execution is None
    assert r512.predicted_total < r128.predicted_total


def test_gather_needs_two_counts(rng):
    opt = HSLBOptimizer(CESMApplication(one_degree()))
    with pytest.raises(ValueError, match="two"):
        opt.gather([128], rng)


def test_fit_missing_component_rejected(rng):
    from repro.perf.data import BenchmarkSuite, ComponentBenchmark

    opt = HSLBOptimizer(CESMApplication(one_degree()))
    partial = BenchmarkSuite(
        [ComponentBenchmark.from_pairs("atm", [(10, 5.0), (20, 3.0)])]
    )
    with pytest.raises(ValueError, match="missing components"):
        opt.fit(partial, rng)


def test_reports_render(rng):
    app = CESMApplication(one_degree())
    result = HSLBOptimizer(app).run([32, 64, 128, 512], 128, rng)
    manual = manual_optimization(app.simulator, 128, rng)
    table = allocation_table(result, title="1deg/128")
    assert "TOTAL" in table and "atm" in table
    comp = comparison_table(manual.allocation, manual.execution, result)
    assert "manual" in comp.splitlines()[0]
    summary = speedup_summary(manual.execution, result)
    assert summary["manual_total"] > 0
    assert "improvement_pct" in summary
