"""Figure 2 benchmark: component scaling curves and fit quality (F2, F2b)."""

import numpy as np

from repro.experiments.fig2 import run_fig2
from repro.perf.fitting import fit_performance_model
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng
from repro.util.tables import format_table


def test_fig2_scaling_curves(benchmark, save_report):
    result = benchmark.pedantic(run_fig2, rounds=1, iterations=1)
    save_report("fig2", result.render())
    # "R^2 was very close to 1 for each component."
    assert result.min_r_squared() > 0.99
    for comp, s in result.series.items():
        # Fitted curves decrease then flatten toward the serial floor.
        assert s.curve_seconds[0] > 3 * s.curve_seconds[-1], comp
        assert np.all(s.curve_seconds > 0)


def test_fig2c_model_family_selection(benchmark, save_report):
    """§III-B aside: is the Table II family the right one for CESM?

    Runs AICc selection (Amdahl vs Table II vs power law) on each
    component's gather data.  The paper's own fits drive b, c to "almost
    zero" — i.e. the data does not support all four parameters.  AICc makes
    the same judgement: a parsimonious family (2-parameter Amdahl or
    3-parameter power law) beats the 4-parameter Table II form on every
    component.  (Table II remains the *formulation* family because its
    extra terms certify convexity and absorb genuinely increasing tails
    when they exist.)
    """
    from repro.cesm.app import CESMApplication
    from repro.cesm.grids import one_degree
    from repro.core.hslb import HSLBOptimizer
    from repro.experiments.paper_data import BENCHMARK_CAMPAIGN
    from repro.perf.selection import select_model

    def run():
        app = CESMApplication(one_degree())
        opt = HSLBOptimizer(app)
        rng = default_rng(2014)
        suite = opt.gather(BENCHMARK_CAMPAIGN["1deg"], rng)
        out = {}
        for comp in suite.components:
            n, y = suite[comp].arrays()
            out[comp] = select_model(n, y, rng=default_rng(3))
        return out

    selections = benchmark.pedantic(run, rounds=1, iterations=1)
    report = "\n\n".join(
        f"[{comp}]\n{sel.render()}" for comp, sel in selections.items()
    )
    save_report("fig2c_model_selection", report)
    for comp, sel in selections.items():
        # The winner always fits well...
        assert sel.best.r_squared > 0.98, comp
        # ...and is never the over-parameterized 4-parameter family.
        assert sel.best_family in ("amdahl", "power-law"), comp
        assert (
            sel.candidates[sel.best_family].aicc
            < sel.candidates["table2"].aicc
        ), comp


def test_fig2b_points_needed_for_fit(benchmark, save_report):
    """§III-C: 'the number of benchmarking runs ... should be at least
    greater than four'; 'for CESM, four points were enough'.

    Sweeps the campaign size D and reports interpolation error at an unseen
    node count — the error collapses once D reaches ~4.
    """
    truth = PerformanceModel(a=27380.0, b=1e-3, c=1.0, d=43.0)
    probe = 300.0
    all_nodes = np.array([32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0])

    def sweep():
        rows = []
        for d in range(2, 8):
            errors = []
            for seed in range(8):
                rng = default_rng(seed)
                idx = np.linspace(0, all_nodes.size - 1, d).round().astype(int)
                nodes = all_nodes[np.unique(idx)]
                y = truth.time(nodes) * np.exp(rng.normal(0, 0.02, nodes.size))
                fit = fit_performance_model(nodes, y, rng=rng)
                errors.append(
                    abs(float(fit.model.time(probe)) - float(truth.time(probe)))
                    / float(truth.time(probe))
                )
            rows.append((d, 100 * float(np.mean(errors)), 100 * float(np.max(errors))))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["D points", "mean err %", "max err %"],
        rows,
        title="F2b: interpolation error vs number of benchmark points",
        float_fmt=".2f",
    )
    save_report("fig2b_points_needed", table)
    by_d = {d: mean for d, mean, _ in rows}
    assert by_d[4] < 5.0          # four points suffice...
    assert by_d[4] <= by_d[2]     # ...and beat two points
