"""Tests for the performance-model family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minlp.expr import VarRef
from repro.perf.model import PerformanceModel


def test_time_matches_formula():
    m = PerformanceModel(a=100.0, b=0.01, c=1.5, d=5.0)
    n = 16.0
    assert m.time(n) == pytest.approx(100 / 16 + 0.01 * 16**1.5 + 5.0)
    assert m(n) == m.time(n)


def test_time_vectorized():
    m = PerformanceModel(a=10.0, d=1.0)
    out = m.time(np.array([1.0, 2.0, 5.0]))
    np.testing.assert_allclose(out, [11.0, 6.0, 3.0])


def test_scalar_time_is_the_array_element_to_the_bit():
    """A Python ``int`` / ``float`` skips the array machinery but not its
    ``pow``: over keyed curves — ``a = 0``, ``b = 0``, and exponents that
    overflow ``n**c`` to ``inf`` (``b * inf``, or ``nan`` when ``b = 0``) —
    every scalar answer has the bits of the array path's element."""
    rng = np.random.default_rng(2026)
    nodes = np.concatenate([[1, 2, 3, 64, 2**20], rng.integers(1, 2**20, 40)])
    for case in range(300):
        m = PerformanceModel(
            a=0.0 if case % 7 == 0 else float(rng.uniform(0, 1e4)),
            b=0.0 if case % 3 == 0 else float(rng.uniform(0, 5)),
            c=float(rng.uniform(0, 2) if case % 2 else rng.uniform(60, 2000)),
            d=float(rng.uniform(0, 5)),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            table = m.time(nodes.astype(float))
            for n, want in zip(nodes.tolist(), table):
                for scalar in (n, float(n)):
                    got = m.time(scalar)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == want.tobytes(), (m, scalar)


def test_nonpositive_nodes_rejected():
    m = PerformanceModel(a=1.0)
    for bad in (0, 0.0, -3, np.array([1.0, -2.0])):
        with pytest.raises(ValueError):
            m.time(bad)


def test_negative_parameters_rejected():
    with pytest.raises(ValueError):
        PerformanceModel(a=-1.0)
    with pytest.raises(ValueError):
        PerformanceModel(a=1.0, d=-0.1)


def test_amdahl_constructor():
    m = PerformanceModel.amdahl(100.0, 2.0)
    assert m.b == 0.0
    assert m.time(50) == pytest.approx(4.0)


def test_derivative_matches_finite_difference():
    m = PerformanceModel(a=500.0, b=0.02, c=1.3, d=7.0)
    n = 37.0
    h = 1e-5
    fd = (m.time(n + h) - m.time(n - h)) / (2 * h)
    assert m.derivative(n) == pytest.approx(fd, rel=1e-6)


def test_expression_round_trip():
    m = PerformanceModel(a=27180.0, b=1e-4, c=1.2, d=45.7)
    e = m.expression("n")
    for n in (10.0, 104.0, 1664.0):
        assert e.evaluate({"n": n}) == pytest.approx(m.time(n))


def test_expression_skips_zero_terms():
    m = PerformanceModel(a=10.0, b=0.0, d=0.0)
    e = m.expression(VarRef("n"))
    assert e.variables() == frozenset({"n"})
    assert e.evaluate({"n": 5.0}) == pytest.approx(2.0)


def test_convexity_flag():
    assert PerformanceModel(a=1.0, b=0.1, c=1.0).is_convex
    assert PerformanceModel(a=1.0, b=0.0, c=0.5).is_convex  # b=0: c irrelevant
    assert not PerformanceModel(a=1.0, b=0.1, c=0.5).is_convex


def test_optimal_nodes_interior():
    m = PerformanceModel(a=1000.0, b=0.1, c=1.0, d=0.0)
    n_star = m.optimal_nodes()
    # T'(n*) = 0 -> n* = sqrt(a/(b c)) = sqrt(10000) = 100.
    assert n_star == pytest.approx(100.0)
    assert m.derivative(n_star) == pytest.approx(0.0, abs=1e-9)


def test_optimal_nodes_monotone_case():
    m = PerformanceModel(a=1000.0, d=2.0)
    assert m.optimal_nodes(n_max=4096) == 4096.0


def test_efficiency_decreases():
    m = PerformanceModel(a=100.0, d=1.0)
    effs = m.efficiency(np.array([1.0, 10.0, 100.0]))
    assert effs[0] == pytest.approx(1.0)
    assert effs[0] > effs[1] > effs[2]


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(1.0, 1e5),
    b=st.floats(0.0, 1.0),
    c=st.floats(1.0, 2.5),
    d=st.floats(0.0, 100.0),
)
def test_convexity_property(a, b, c, d):
    """With nonnegative params and c >= 1, midpoint convexity holds."""
    m = PerformanceModel(a=a, b=b, c=c, d=d)
    n1, n2 = 3.0, 301.0
    mid = 0.5 * (n1 + n2)
    assert m.time(mid) <= 0.5 * (m.time(n1) + m.time(n2)) + 1e-9


@settings(max_examples=50, deadline=None)
@given(a=st.floats(1.0, 1e4), d=st.floats(0.0, 10.0), n=st.floats(1.0, 1e4))
def test_amdahl_floor_property(a, d, n):
    """T(n) never drops below the serial floor d."""
    m = PerformanceModel(a=a, d=d)
    assert m.time(n) >= d


def test_frozen_dataclass():
    m = PerformanceModel(a=1.0)
    with pytest.raises(Exception):
        m.a = 2.0


def test_as_tuple_and_repr():
    m = PerformanceModel(a=1.0, b=2.0, c=1.5, d=3.0)
    assert m.as_tuple() == (1.0, 2.0, 1.5, 3.0)
    assert "PerformanceModel" in repr(m)
