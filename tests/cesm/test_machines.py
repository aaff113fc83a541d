"""Tests for the new-hardware what-if transformation (§IV-C)."""

import pytest

from repro.cesm.machines import EXASCALE_SKETCH, INTREPID, MachineProfile
from repro.perf.model import PerformanceModel

MODEL = PerformanceModel(a=27380.0, b=1e-3, c=1.0, d=43.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        MachineProfile("x", compute_speedup=0.0)
    with pytest.raises(ValueError):
        MachineProfile("x", nodes=0)


def test_identity_transform():
    out = INTREPID.transform(MODEL)
    assert out == MODEL


def test_transform_scales_each_term():
    m = MachineProfile("m", compute_speedup=10.0, network_speedup=2.0, serial_speedup=5.0)
    out = m.transform(MODEL)
    assert out.a == pytest.approx(MODEL.a / 10.0)
    assert out.b == pytest.approx(MODEL.b / 2.0)
    assert out.c == MODEL.c
    assert out.d == pytest.approx(MODEL.d / 5.0)
    # Faster machine, faster everywhere.
    for n in (16, 256, 4096):
        assert out.time(n) < MODEL.time(n)


def test_transform_all():
    models = {"atm": MODEL, "ocn": PerformanceModel(a=7550.0, d=45.0)}
    out = EXASCALE_SKETCH.transform_all(models)
    assert set(out) == {"atm", "ocn"}
    assert out["atm"].a == pytest.approx(MODEL.a / EXASCALE_SKETCH.compute_speedup)
