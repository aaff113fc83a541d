"""Degenerate-component handling and robust-loss behavior of fit_suite."""

import numpy as np
import pytest

from repro.perf.data import BenchmarkSuite, ComponentBenchmark, ScalingObservation
from repro.perf.fitting import fit_suite
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng


def _bench(name, counts, model, inflate=()):
    """Synthetic benchmark of ``model`` with 4x outliers at ``inflate``."""
    obs = []
    for n in counts:
        t = float(model.time(n))
        obs.append(ScalingObservation(n, 4.0 * t if n in inflate else t))
    return ComponentBenchmark(name, obs)


MODEL = PerformanceModel(a=800.0, d=3.0)
COUNTS = (8, 16, 32, 64, 128, 256)


def test_fit_suite_raises_on_degenerate_by_default():
    suite = BenchmarkSuite(
        [
            _bench("good", COUNTS, MODEL),
            ComponentBenchmark("thin", [ScalingObservation(16, 53.0)]),
        ]
    )
    with pytest.raises(ValueError, match="'thin' is unfittable"):
        fit_suite(suite, rng=default_rng(0))


def test_all_outlier_column_huber_beats_linear():
    """R2 unit check: when every replicate at one node count is inflated 4x,
    the robust loss shrugs the column off while least squares chases it."""
    bench = _bench("atm", COUNTS, MODEL, inflate=(64,))
    probes = np.array([24, 48, 96, 192], dtype=float)
    truth = np.asarray(MODEL.time(probes))
    errors = {}
    for loss in ("linear", "huber"):
        fit = fit_suite(BenchmarkSuite([bench]), rng=default_rng(3), loss=loss)["atm"]
        pred = np.asarray(fit.model.time(probes))
        errors[loss] = float(np.mean(np.abs(pred - truth) / truth))
    assert errors["huber"] < errors["linear"]
    # The robust fit should be close to the generating model; the plain
    # fit is dragged visibly off by the poisoned column.
    assert errors["huber"] < 0.05
    assert errors["linear"] > errors["huber"] * 2
