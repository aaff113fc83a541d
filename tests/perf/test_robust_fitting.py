"""Robust fitting vs outlier-contaminated benchmark data.

§IV: "The weakest part of the HSLB algorithm, in our opinion, is obtaining
the actual performance data for fitting."  These tests quantify the damage
an outlier benchmark run does to plain least squares and confirm the Huber
mitigation — plus the simulator-side failure injection that produces such
data on purpose.
"""

import numpy as np
import pytest

from repro.cesm.app import CESMApplication
from repro.cesm.grids import one_degree
from repro.cesm.simulator import CESMSimulator
from repro.core.hslb import HSLBOptimizer
from repro.perf.fitting import fit_performance_model
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng

TRUTH = PerformanceModel(a=27380.0, d=43.0)
NODES = np.array([32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0])


def _contaminated(rng, outlier_index=2, factor=3.0):
    y = TRUTH.time(NODES) * np.exp(rng.normal(0, 0.01, NODES.size))
    y[outlier_index] *= factor
    return y


def test_unknown_loss_rejected():
    with pytest.raises(ValueError, match="loss"):
        fit_performance_model(NODES, TRUTH.time(NODES), loss="cauchy-ish")


def test_huber_matches_linear_on_clean_data(rng):
    y = TRUTH.time(NODES) * np.exp(rng.normal(0, 0.01, NODES.size))
    linear = fit_performance_model(NODES, y, loss="linear", rng=default_rng(1))
    huber = fit_performance_model(NODES, y, loss="huber", rng=default_rng(1))
    probe = 300.0
    assert huber.model.time(probe) == pytest.approx(
        linear.model.time(probe), rel=0.02
    )


def test_huber_shrugs_off_single_outlier(rng):
    y = _contaminated(rng)
    probe = 700.0
    truth_t = float(TRUTH.time(probe))
    linear = fit_performance_model(NODES, y, loss="linear", rng=default_rng(1))
    huber = fit_performance_model(NODES, y, loss="huber", rng=default_rng(1))
    lin_err = abs(float(linear.model.time(probe)) - truth_t) / truth_t
    hub_err = abs(float(huber.model.time(probe)) - truth_t) / truth_t
    assert hub_err < lin_err  # robust fit strictly better here
    assert hub_err < 0.05     # ...and close to the truth


def test_soft_l1_also_robust(rng):
    y = _contaminated(rng)
    probe = 700.0
    fit = fit_performance_model(NODES, y, loss="soft_l1", rng=default_rng(1))
    assert float(fit.model.time(probe)) == pytest.approx(
        float(TRUTH.time(probe)), rel=0.08
    )


# --- simulator failure injection ---------------------------------------------


def test_outlier_knob_validation():
    with pytest.raises(ValueError, match="outlier_prob"):
        CESMSimulator(one_degree(), outlier_prob=1.0)
    with pytest.raises(ValueError, match="outlier_scale"):
        CESMSimulator(one_degree(), outlier_prob=0.1, outlier_scale=0.5)


def test_outlier_injection_statistics():
    clean = CESMSimulator(one_degree())
    dirty = CESMSimulator(one_degree(), outlier_prob=0.3, outlier_scale=4.0)
    rng_c, rng_d = default_rng(3), default_rng(3)
    base = np.array([clean.component_time("atm", 104, rng_c) for _ in range(200)])
    spiked = np.array([dirty.component_time("atm", 104, rng_d) for _ in range(200)])
    # Injection only slows things down and produces a heavy right tail.
    assert spiked.mean() > base.mean()
    assert (spiked > 1.4 * float(TRUTH.time(104))).sum() > 20


def test_pipeline_with_outliers_huber_beats_plain():
    """End to end: contaminated gather campaign, plain vs robust fits.

    The robust pipeline's *predictions* must track reality better (the
    allocation itself is often forgiving — the prediction error is where
    bad fits show up first).
    """
    def run(loss, seed=31):
        app = CESMApplication(one_degree(), outlier_prob=0.18, outlier_scale=4.0,
                              benchmark_runs_per_count=2)
        opt = HSLBOptimizer(app, fit_loss=loss)
        rng = default_rng(seed)
        suite = opt.gather([32, 64, 128, 256, 512, 1024, 2048], rng)
        fits = opt.fit(suite, rng)
        # Judge fits against the noise-free ground truth at the target size.
        errs = []
        for comp, fit in fits.items():
            truth = app.simulator.true_component_time(comp, 100)
            errs.append(abs(float(fit.model.time(100)) - truth) / truth)
        return float(np.mean(errs))

    plain_err = run("linear")
    robust_err = run("huber")
    assert robust_err <= plain_err + 1e-9
    assert robust_err < 0.15


def test_config_rejects_unknown_loss():
    with pytest.raises(ValueError, match="fit loss"):
        HSLBOptimizer(CESMApplication(one_degree()), fit_loss="tukey")
