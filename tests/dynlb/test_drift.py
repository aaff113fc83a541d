"""Drift models: shapes, determinism, clamps, and the named presets."""

import numpy as np
import pytest

from repro.dynlb.drift import DriftProfile, DriftSpec, drift_preset


def test_no_spec_means_unit_multiplier():
    profile = DriftProfile({}, steps=10)
    assert profile.multiplier("anything", 0) == 1.0
    assert profile.multiplier("anything", 9) == 1.0


def test_linear_reaches_rate_at_last_step():
    profile = DriftProfile({"atm": DriftSpec("linear", rate=0.6)}, steps=21)
    assert profile.multiplier("atm", 0) == 1.0
    assert profile.multiplier("atm", 20) == pytest.approx(1.6)
    assert profile.multiplier("atm", 10) == pytest.approx(1.3)


def test_step_jumps_at_the_configured_fraction():
    profile = DriftProfile({"c": DriftSpec("step", rate=1.0, at=0.5)}, steps=11)
    assert profile.multiplier("c", 4) == 1.0
    assert profile.multiplier("c", 5) == pytest.approx(2.0)
    assert profile.multiplier("c", 10) == pytest.approx(2.0)


def test_walk_is_deterministic_and_order_independent():
    a = DriftProfile({"c": DriftSpec("walk", rate=0.2)}, steps=30, seed=5)
    b = DriftProfile({"c": DriftSpec("walk", rate=0.2)}, steps=30, seed=5)
    # Query b out of order: keyed draws must not depend on call sequence.
    late_b = b.multiplier("c", 25)
    assert a.multiplier("c", 25) == late_b
    assert [a.multiplier("c", s) for s in range(30)] == [
        b.multiplier("c", s) for s in range(30)
    ]
    other_seed = DriftProfile({"c": DriftSpec("walk", rate=0.2)}, steps=30, seed=6)
    assert other_seed.multiplier("c", 25) != late_b


def test_multiplier_clamps_to_floor_and_ceiling():
    profile = DriftProfile(
        {"up": DriftSpec("linear", rate=100.0), "down": DriftSpec("linear", rate=-5.0)},
        steps=11,
    )
    assert profile.multiplier("up", 10) == 20.0
    assert profile.multiplier("down", 10) == 0.05


def test_validation_errors():
    with pytest.raises(ValueError, match="unknown drift kind"):
        DriftSpec("quadratic")
    with pytest.raises(ValueError, match="must be in"):
        DriftSpec("step", at=1.5)
    with pytest.raises(ValueError, match="steps"):
        DriftProfile({}, steps=0)
    with pytest.raises(ValueError, match="outside run"):
        DriftProfile({}, steps=5).multiplier("c", 5)


def test_linear_preset_drifts_first_component_up_rest_down():
    profile = drift_preset("linear", ("atm", "ice", "ocn"), steps=11, rate=0.6)
    assert profile.multiplier("atm", 10) == pytest.approx(1.6)
    assert profile.multiplier("ice", 10) == pytest.approx(1.0 - 0.2)
    assert profile.multiplier("ocn", 10) == pytest.approx(1.0 - 0.2)


def test_walk_preset_scales_sigma_with_steps():
    profile = drift_preset("walk", ("a", "b"), steps=100, rate=0.5, seed=1)
    assert profile.spec("a").kind == "walk"
    assert profile.spec("a").rate == pytest.approx(0.5 / np.sqrt(100))


def test_unknown_preset_is_an_error():
    with pytest.raises(ValueError, match="unknown drift preset"):
        drift_preset("chaos", ("a",), steps=10)
    with pytest.raises(ValueError, match="at least one component"):
        drift_preset("linear", (), steps=10)


def test_describe_names_active_components_only():
    profile = drift_preset("linear", ("atm", "ocn"), steps=10, rate=0.3, seed=4)
    text = profile.describe()
    assert "atm:linear+0.3" in text
    assert "seed=4" in text
    assert DriftProfile({}, steps=3).describe() == "Drift(none, seed=0)"
