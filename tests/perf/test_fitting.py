"""Tests for the least-squares fitting step (Table II)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf.fitting as fitting
from repro.perf.data import BenchmarkSuite, ComponentBenchmark
from repro.perf.fitting import FIT_STARTS, fit_performance_model, fit_suite
from repro.perf.trf import least_squares_trf_lockstep
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng


def _samples(model, nodes, rng=None, noise=0.0):
    n = np.asarray(nodes, dtype=float)
    y = model.time(n)
    if noise:
        y = y * (1.0 + noise * rng.standard_normal(n.size))
    return n, np.maximum(y, 1e-9)


def test_exact_recovery_amdahl():
    truth = PerformanceModel(a=27180.0, d=45.7)
    n, y = _samples(truth, [104, 256, 512, 1024, 1664])
    fit = fit_performance_model(n, y)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.model.a == pytest.approx(truth.a, rel=1e-3)
    assert fit.model.d == pytest.approx(truth.d, rel=1e-2)
    # Predictions, not parameters, are what HSLB consumes; they must be tight.
    for probe in (150, 800, 1500):
        assert fit.model.time(probe) == pytest.approx(truth.time(probe), rel=1e-4)


def test_exact_recovery_with_nln_term():
    truth = PerformanceModel(a=5000.0, b=0.004, c=1.4, d=10.0)
    n, y = _samples(truth, [8, 16, 32, 64, 128, 256, 512, 1024])
    fit = fit_performance_model(n, y, rng=default_rng(3))
    assert fit.r_squared > 0.99999
    for probe in (12, 100, 900):
        assert fit.model.time(probe) == pytest.approx(truth.time(probe), rel=5e-3)


def test_noisy_fit_r2_near_one(rng):
    """The paper: 'R^2 was very close to 1 for each component'."""
    truth = PerformanceModel(a=7731.0, d=41.9)
    n, y = _samples(truth, [24, 48, 96, 192, 384], rng=rng, noise=0.02)
    fit = fit_performance_model(n, y, rng=rng)
    assert fit.r_squared > 0.99


def test_four_points_enough_for_good_interpolation(rng):
    """§III-C: 'for CESM, four points were enough'."""
    truth = PerformanceModel(a=65290.0, d=14.8)
    n, y = _samples(truth, [138, 302, 900, 2220], rng=rng, noise=0.01)
    fit = fit_performance_model(n, y, rng=rng)
    probe = 486.0
    assert fit.model.time(probe) == pytest.approx(truth.time(probe), rel=0.05)


def test_parameters_nonnegative_constraint_respected(rng):
    # Data from a *decreasing* curve shaped like a/n only; even with noise the
    # fitted parameters must respect Table II line 11.
    truth = PerformanceModel(a=100.0, d=1.0)
    n, y = _samples(truth, [1, 2, 4, 8, 16, 32], rng=rng, noise=0.05)
    fit = fit_performance_model(n, y, rng=rng)
    assert fit.model.a >= 0 and fit.model.b >= 0 and fit.model.d >= 0


def test_convex_flag_bounds_exponent(rng):
    """The convex bound is unconditional: even data from a concave ``n^c``
    term fits a curve with ``c >= 1`` (the MINLP must stay convex)."""
    truth = PerformanceModel(a=50.0, b=0.5, c=0.4, d=0.0)  # concave nln term
    n, y = _samples(truth, [1, 2, 4, 8, 16, 32, 64])
    convex_fit = fit_performance_model(n, y, rng=rng)
    assert convex_fit.model.c >= 1.0 - 1e-12
    assert convex_fit.model.is_convex


def test_multistart_finds_no_worse_fit(rng, monkeypatch):
    """Every one of the ``FIT_STARTS`` starts is solved, and the fit keeps
    the best: no worse than any start, the heuristic first one included."""
    truth = PerformanceModel(a=1000.0, b=0.01, c=1.8, d=3.0)
    n, y = _samples(truth, [4, 8, 16, 32, 64, 128, 256], rng=rng, noise=0.03)
    costs = []

    def recording(*args, **kwargs):
        results, ticks = least_squares_trf_lockstep(*args, **kwargs)
        costs.extend(float(res.cost) for res in results)
        return results, ticks

    monkeypatch.setattr(fitting, "least_squares_trf_lockstep", recording)
    multi = fit_performance_model(n, y, rng=default_rng(1))
    assert multi.starts_tried == len(costs) == FIT_STARTS
    assert multi.rss == pytest.approx(2.0 * min(costs), rel=1e-9)  # cost = rss / 2


def test_local_optima_give_similar_allocation_quality():
    """Paper §III-C: different local optima -> similar predicted times."""
    truth = PerformanceModel(a=2000.0, b=0.02, c=1.2, d=8.0)
    n, y = _samples(truth, [8, 32, 128, 512])
    fits = [fit_performance_model(n, y, rng=default_rng(seed)) for seed in range(5)]
    probes = np.array([16.0, 64.0, 256.0])
    preds = np.array([f.model.time(probes) for f in fits])
    spread = preds.max(axis=0) - preds.min(axis=0)
    assert np.all(spread <= 0.05 * preds.mean(axis=0) + 1e-6)


def test_weights_prioritize_points(rng):
    truth = PerformanceModel(a=100.0, d=5.0)
    n = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    y = truth.time(n)
    y[-1] *= 3.0  # corrupt the largest-n point
    heavy_small = fit_performance_model(
        n, y, weights=np.array([10.0, 10.0, 10.0, 10.0, 0.01]), rng=rng
    )
    uniform = fit_performance_model(n, y, rng=rng)
    # Down-weighting the corrupted point should recover d much better.
    assert abs(heavy_small.model.d - truth.d) < abs(uniform.model.d - truth.d)


def test_input_validation():
    with pytest.raises(ValueError, match="at least 2"):
        fit_performance_model(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="positive"):
        fit_performance_model(np.array([1.0, -2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="equal length"):
        fit_performance_model(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="weights"):
        fit_performance_model(
            np.array([1.0, 2.0]), np.array([2.0, 1.0]), weights=np.array([1.0])
        )
    # NaN and inf pass the ``<= 0`` checks: a NaN or infinite time once
    # raised OverflowError from the random-start draw (which the dynlb
    # refitter does not catch), and NaN weights or infinite nodes surfaced as
    # "failed from every start".  fit_suite shares this validation.
    n, y = np.array([1.0, 2.0, 4.0]), np.array([4.0, 2.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_performance_model(n, np.array([4.0, bad, 1.0]), rng=default_rng(0))
        with pytest.raises(ValueError, match="finite"):
            fit_performance_model(np.array([1.0, 2.0, bad]), y, rng=default_rng(0))
        with pytest.raises(ValueError, match="weights must be finite"):
            fit_performance_model(n, y, weights=np.array([1.0, bad, 1.0]))


def test_fit_component_and_suite(rng):
    suite = BenchmarkSuite(
        [
            ComponentBenchmark.from_pairs(
                "atm", [(104, 307.0), (512, 98.8), (1024, 72.2), (1664, 62.0)]
            ),
            ComponentBenchmark.from_pairs(
                "ocn", [(24, 364.0), (96, 122.4), (240, 74.1), (384, 62.0)]
            ),
        ]
    )
    fits = fit_suite(suite, rng=rng)
    assert set(fits) == {"atm", "ocn"}
    for f in fits.values():
        assert f.r_squared > 0.999
    single = fit_performance_model(*suite["atm"].arrays(), rng=rng)
    assert single.model.time(104) == pytest.approx(307.0, rel=0.02)


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(100.0, 1e5),
    d=st.floats(1.0, 50.0),
)
def test_recovery_property_amdahl_family(a, d):
    """Property: noiseless Amdahl data is recovered with near-perfect R²."""
    truth = PerformanceModel(a=a, d=d)
    n = np.array([4.0, 16.0, 64.0, 256.0, 1024.0])
    fit = fit_performance_model(n, truth.time(n))
    assert fit.r_squared > 1 - 1e-6
    preds = fit.model.time(n)
    np.testing.assert_allclose(preds, truth.time(n), rtol=1e-3)
