"""Constrained nonlinear least squares for the performance model.

Implements Table II line 10::

    min_{a,b,c,d >= 0}  sum_i ( y_i - a/n_i - b n_i^{c} - d )^2

by bounded Trust Region Reflective least squares (:mod:`repro.perf.trf`)
with an analytic Jacobian and multistart (the paper notes the problem "is,
in general, not convex, and there may be several locally optimal solutions
... selecting a different starting point may lead the solver to a different
local solution", and that different local optima "led to similar quality
node allocations" — tests pin both behaviours).

Every fit additionally constrains ``c >= 1`` so the fitted model is
certifiably convex, which the outer-approximation solver needs for global
optimality (§III-E).  On well-scaling codes like CESM the fitted ``b`` is
nearly zero, so this restriction costs essentially nothing.  Every fit
tries :data:`FIT_STARTS` starts: the heuristic one, then random restarts
drawn from the caller's ``rng``.

The solver contract: every start is solved by
:func:`repro.perf.trf.least_squares_trf`, a port of scipy's bounded TRF that
is bit-identical to ``scipy.optimize.least_squares(method="trf")`` — the
same ``x``, ``cost``, ``status`` and ``nfev`` on every start — at less than
half the cost, because at 4 parameters and 2-10 observations scipy's wrappers,
not its arithmetic, dominate.  scipy stays the test oracle
(``tests/perf/test_trf.py``); this module imports no scipy at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs.trace import span
from repro.perf.data import BenchmarkSuite, ComponentBenchmark
from repro.perf.model import PerformanceModel
from repro.perf.trf import least_squares_trf
from repro.util.rng import default_rng

#: Bounds for the exponent c.  ``c >= 1`` keeps the fitted curve convex; the
#: paper's T^nln is a gentle correction term, and anything steeper than cubic
#: is certainly noise amplification.
_C_MIN = 1.0
_C_MAX = 3.0

#: Optimizer starts per fit: one heuristic start plus random restarts.
FIT_STARTS = 5

#: The least-squares losses a fit accepts (Table II is ``"linear"``).
FIT_LOSSES = ("linear", "huber", "soft_l1")


@dataclass(frozen=True)
class FitResult:
    """A fitted model plus the diagnostics the paper reports (notably R²)."""

    model: PerformanceModel
    r_squared: float
    rss: float
    n_points: int
    starts_tried: int

    def __repr__(self) -> str:
        return (
            f"FitResult({self.model!r}, R^2={self.r_squared:.5f}, "
            f"rss={self.rss:.4g}, D={self.n_points})"
        )


def _residuals(params: np.ndarray, n: np.ndarray, y: np.ndarray) -> np.ndarray:
    a, b, c, d = params
    return y - (a / n + b * n**c + d)


class _Curve:
    """Residuals and Jacobian of one fit's data, for the TRF.

    The solver asks for the Jacobian at a point whose residuals it has just
    evaluated, so the two share ``n**c`` (keyed by ``c``, the only parameter
    it depends on).  ``log n`` and the constant columns ``-1/n`` and ``-1``
    are computed once per fit.
    """

    def __init__(self, n: np.ndarray, y: np.ndarray, w: np.ndarray | None) -> None:
        self.n, self.y, self.w = n, y, w
        self.log_n = np.log(n)
        self.template = np.empty((n.size, 4))
        self.template[:, 0] = -1.0 / n
        self.template[:, 3] = -1.0
        self._c, self._nc = math.nan, n  # no ``c`` compares equal to NaN

    def _power(self, c) -> np.ndarray:
        if c != self._c:
            self._c, self._nc = c, self.n**c
        return self._nc

    def residuals(self, params: np.ndarray) -> np.ndarray:
        a, b, c, d = params
        r = self.y - (a / self.n + b * self._power(c) + d)
        return r * self.w if self.w is not None else r

    def jacobian(self, params: np.ndarray) -> np.ndarray:
        """``dr/dθ`` at ``params``."""
        a, b, c, d = params
        nc = self._power(c)
        J = self.template.copy()
        J[:, 1] = -nc
        J[:, 2] = -b * self.log_n * nc
        return J * self.w[:, None] if self.w is not None else J


def _heuristic_start(n: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A physically-motivated initial point.

    ``d`` starts at a fraction of the fastest time (the serial floor is at
    most the best time seen); ``a`` from the smallest-node observation with
    that floor removed; ``b`` tiny with the flattest admissible exponent —
    matching the paper's observation that b, c fit to "almost zero".
    """
    d0 = 0.5 * float(y.min())
    a0 = max((float(y[0]) - d0) * float(n[0]), 1e-6)
    b0 = 1e-6
    return np.array([a0, b0, _C_MIN, d0])


def fit_performance_model(
    nodes: np.ndarray,
    seconds: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
    weights: np.ndarray | None = None,
    loss: str = "linear",
) -> FitResult:
    """Fit ``T(n) = a/n + b n^c + d`` to observations by least squares.

    Parameters
    ----------
    nodes, seconds:
        Observation arrays (``D_j`` entries each, D >= 2 required; the paper
        recommends >= 4 and a benchmark quantifies why).
    rng:
        Draws the random restarts.
    weights:
        Optional per-observation weights (1/sigma_i); residuals are scaled.
    loss:
        ``"linear"`` is the paper's plain least squares (Table II line 10).
        ``"huber"`` or ``"soft_l1"`` give robust fits that shrug off outlier
        benchmark runs (a node hiccup during the gather campaign) — §IV's
        "the weakest part of the HSLB algorithm is obtaining the actual
        performance data" risk, mitigated.  Residuals are scaled relative to
        the observed times so the robust threshold is resolution-independent.
    """
    if loss not in FIT_LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    n = np.asarray(nodes, dtype=float)
    y = np.asarray(seconds, dtype=float)
    if n.shape != y.shape or n.ndim != 1:
        raise ValueError("nodes and seconds must be 1-D arrays of equal length")
    if n.size < 2:
        raise ValueError(f"need at least 2 observations to fit, got {n.size}")
    if np.any(n <= 0) or np.any(y <= 0):
        raise ValueError("node counts and times must be positive")
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != n.shape or np.any(w <= 0):
            raise ValueError("weights must be positive and match observations")
    else:
        w = None

    order = np.argsort(n)
    n, y = n[order], y[order]
    if w is not None:
        w = w[order]

    lower = np.array([0.0, 0.0, _C_MIN, 0.0])
    upper = np.array([np.inf, np.inf, _C_MAX, np.inf])

    curve = _Curve(n, y, w)
    rng = rng or default_rng()
    starts = [_heuristic_start(n, y)]
    y_scale = float(y.max())
    for _ in range(FIT_STARTS - 1):
        starts.append(
            np.array(
                [
                    rng.uniform(0.0, 2.0 * y_scale * n[0]),
                    rng.uniform(0.0, 0.1 * y_scale / max(n[-1], 1.0)),
                    rng.uniform(_C_MIN, _C_MAX),
                    rng.uniform(0.0, y.min()),
                ]
            )
        )

    # Robust losses need a residual scale: ~5% of the typical time means a
    # benchmark run more than a few percent off the curve stops dominating.
    f_scale = 0.05 * float(np.median(y)) if loss != "linear" else 1.0

    best_params: np.ndarray | None = None
    best_cost = math.inf
    best_rss = math.inf
    tried = 0
    for x0 in starts:
        tried += 1
        try:
            res = least_squares_trf(
                curve.residuals,
                curve.jacobian,
                np.clip(x0, lower, upper),
                lower,
                upper,
                max_nfev=2000,
                loss=loss,
                f_scale=f_scale,
            )
        except (ValueError, FloatingPointError):
            continue
        cost = float(res.cost)
        if cost < best_cost:
            best_cost = cost
            best_rss = float(np.sum(_residuals(res.x, n, y) ** 2))
            best_params = res.x

    if best_params is None:
        raise RuntimeError("performance-model fit failed from every start")

    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - best_rss / tss if tss > 0 else 1.0
    a, b, c, d = (float(v) for v in best_params)
    return FitResult(
        model=PerformanceModel(a=a, b=b, c=c, d=d),
        r_squared=r2,
        rss=best_rss,
        n_points=int(n.size),
        starts_tried=tried,
    )


def fit_component(
    bench: ComponentBenchmark,
    *,
    rng: np.random.Generator | None = None,
    loss: str = "linear",
) -> FitResult:
    """Fit one component's benchmark data, every observation weighted alike."""
    n, y = bench.arrays()
    return fit_performance_model(n, y, rng=rng, loss=loss)


def fit_suite(
    suite: BenchmarkSuite,
    *,
    rng: np.random.Generator | None = None,
    loss: str = "linear",
) -> dict[str, FitResult]:
    """Fit every component in a suite (step 2 of the HSLB algorithm).

    A component with degenerate benchmark data (fewer than 2 usable points —
    e.g. after a degraded gather campaign pruned its failures) aborts the
    whole suite with ``ValueError`` naming it.

    Components are fitted one after another from the one ``rng`` stream, so
    a suite has exactly one answer per seed (the ledger pins objectives).
    """
    rng = rng or default_rng()
    degenerate = suite.degenerate_components(min_points=2)
    if degenerate:
        name, reason = next(iter(sorted(degenerate.items())))
        raise ValueError(f"component {name!r} is unfittable: {reason}")
    fits: dict[str, FitResult] = {}
    for name in suite:
        with span("fit.component", component=name) as sp:
            fit = fit_component(suite[name], rng=rng, loss=loss)
            sp.set_tag("r_squared", round(fit.r_squared, 6))
            sp.set_tag("points", fit.n_points)
        fits[name] = fit
    return fits
