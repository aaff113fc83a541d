"""Drift-aware refitter: scale tracking, staleness, full-refit guards."""

import pytest

from repro.dynlb.refit import MIN_REFIT_POINTS, STALE_PATIENCE, DriftAwareRefitter
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng

_BASE = {"c": PerformanceModel(a=2000.0, d=5.0)}


def test_scale_converges_to_the_observed_ratio():
    refitter = DriftAwareRefitter(_BASE)
    truth = 1.5 * _BASE["c"].time(16)
    for step in range(40):
        refitter.observe(step, "c", 16, truth)
    assert refitter.scale("c") == pytest.approx(1.5, rel=1e-3)
    assert refitter.model("c").time(16) == pytest.approx(truth, rel=1e-3)
    # Uniform scaling preserves the curve's shape, not just one point.
    assert refitter.model("c").time(64) == pytest.approx(
        1.5 * _BASE["c"].time(64), rel=1e-3
    )


def test_error_stays_low_when_the_model_tracks():
    refitter = DriftAwareRefitter(_BASE)
    for step in range(20):
        refitter.observe(step, "c", 16, _BASE["c"].time(16))
    assert refitter.error("c") < 0.01
    assert not refitter.any_stale()


def test_staleness_trips_after_patience_and_clears():
    refitter = DriftAwareRefitter(_BASE)
    base_time = _BASE["c"].time(16)
    # A sudden 3x slowdown: the EWMA scale lags, so the relative error
    # crosses the threshold at the second step and stays above it.
    for step in range(STALE_PATIENCE):
        refitter.observe(step, "c", 16, 3.0 * base_time)
    assert not refitter.any_stale()  # one bad step short of the patience
    refitter.observe(STALE_PATIENCE, "c", 16, 3.0 * base_time)
    assert refitter.any_stale()
    refitter.clear_stale()
    assert not refitter.any_stale()


def test_full_refit_refuses_clustered_node_counts():
    """A window that only saw one n (or a narrow band) must not refit."""
    refitter = DriftAwareRefitter(_BASE, rng=default_rng(0))
    for step in range(12):
        refitter.observe(step, "c", 16, 2.0 * _BASE["c"].time(16))
    assert refitter.maybe_full_refit("c") is False
    # A second count inside the span guard still refuses.
    for step in range(12, 18):
        refitter.observe(step, "c", 17, 2.0 * _BASE["c"].time(17))
    assert refitter.maybe_full_refit("c") is False
    assert refitter.full_refits == 0


def test_full_refit_needs_enough_points():
    refitter = DriftAwareRefitter(_BASE)
    for step in range(MIN_REFIT_POINTS - 1):
        n = (8, 32)[step % 2]
        refitter.observe(step, "c", n, _BASE["c"].time(n))
    assert refitter.maybe_full_refit("c") is False


def test_full_refit_recovers_a_shape_change():
    """With n-diversity, the refit recovers a curve a pure scale cannot."""
    truth = PerformanceModel(a=6000.0, d=1.0)  # different a/d mix than base
    refitter = DriftAwareRefitter(_BASE, rng=default_rng(1))
    counts = [8, 16, 32, 48, 8, 16, 32, 48]
    for step, n in enumerate(counts):
        refitter.observe(step, "c", n, truth.time(n))
    assert refitter.maybe_full_refit("c") is True
    assert refitter.full_refits == 1
    assert refitter.scale("c") == 1.0
    for n in (8, 24, 48):
        assert refitter.model("c").time(n) == pytest.approx(truth.time(n), rel=0.05)


def test_full_refit_keeps_scaled_model_when_it_already_fits():
    """When uniform scaling explains the window, the refit must not churn."""
    refitter = DriftAwareRefitter(_BASE, rng=default_rng(2))
    for step, n in enumerate([8, 16, 32, 48, 8, 16, 32, 48]):
        refitter.observe(step, "c", n, 2.0 * _BASE["c"].time(n))
    scaled_before = refitter.model("c")
    refitter.maybe_full_refit("c")
    # Either outcome is consistent, but the resulting curve must match the
    # scaled truth — the guard exists to prevent a *worse* model landing.
    for n in (8, 24, 48):
        assert refitter.model("c").time(n) == pytest.approx(
            scaled_before.time(n), rel=0.1
        )


def test_validation_errors():
    with pytest.raises(ValueError, match="at least one base model"):
        DriftAwareRefitter({})


def test_models_view_covers_every_component():
    refitter = DriftAwareRefitter(
        {"a": PerformanceModel(a=100.0), "b": PerformanceModel(a=200.0)}
    )
    assert set(refitter.models()) == {"a", "b"}


def test_every_observed_step_books_its_prediction_error():
    """``observe`` sets ``hslb_prediction_error{component, layout="dynlb"}``
    to the step's relative error against the scaled model; a step it skips
    books nothing."""
    from repro.obs.metrics import REGISTRY

    gauge = REGISTRY.gauge("hslb_prediction_error")
    refitter = DriftAwareRefitter(_BASE)
    predicted = _BASE["c"].time(16)
    for step, seconds in enumerate((2.0 * predicted, 0.5 * predicted, 1.1 * predicted)):
        refitter.observe(step, "c", 16, seconds)
        error = abs(seconds - refitter.scale("c") * predicted) / seconds
        assert gauge.value(component="c", layout="dynlb") == error
    refitter.observe(3, "c", 16, 0.0)
    assert gauge.value(component="c", layout="dynlb") == error
