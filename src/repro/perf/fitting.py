"""Constrained nonlinear least squares for the performance model.

Implements Table II line 10::

    min_{a,b,c,d >= 0}  sum_i ( y_i - a/n_i - b n_i^{c} - d )^2

by bounded Trust Region Reflective least squares (:mod:`repro.perf.trf`)
with an analytic Jacobian and multistart (the paper notes the problem "is,
in general, not convex, and there may be several locally optimal solutions
... selecting a different starting point may lead the solver to a different
local solution", and that different local optima "led to similar quality
node allocations" — tests pin both behaviours).

``convex=True`` additionally constrains ``c >= 1`` so the fitted model is
certifiably convex, which the outer-approximation solver needs for global
optimality (§III-E).  On well-scaling codes like CESM the fitted ``b`` is
nearly zero, so this restriction costs essentially nothing — a benchmark
quantifies that claim.  Only :func:`fit_performance_model` can lift it:
component and suite fits feed the MINLP and are always convex.

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

#: Upper bound for the exponent c.  The paper's T^nln is a gentle correction
#: term; anything steeper than cubic is certainly noise amplification.
_C_MAX = 3.0


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


def _jacobian(params: np.ndarray, n: np.ndarray, log_n: np.ndarray) -> np.ndarray:
    """``dr/dθ`` at ``params``; ``log_n`` is ``np.log(n)``, taken once per fit."""
    a, b, c, d = params
    nc = n**c
    J = np.empty((n.size, 4))
    J[:, 0] = -1.0 / n
    J[:, 1] = -nc
    J[:, 2] = -b * log_n * nc
    J[:, 3] = -1.0
    return J


def _heuristic_start(n: np.ndarray, y: np.ndarray, c_min: float) -> np.ndarray:
    """A physically-motivated initial point.

    ``d`` starts at a fraction of the fastest time (the serial floor is at
    most the best time seen); ``a`` from the smallest-node observation with
    that floor removed; ``b`` tiny with the flattest admissible exponent —
    matching the paper's observation that b, c fit to "almost zero".
    """
    d0 = 0.5 * float(y.min())
    a0 = max((float(y[0]) - d0) * float(n[0]), 1e-6)
    b0 = 1e-6
    c0 = max(1.0, c_min)
    return np.array([a0, b0, c0, d0])


def fit_performance_model(
    nodes: np.ndarray,
    seconds: np.ndarray,
    *,
    convex: bool = True,
    multistart: int = 5,
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
    convex:
        Constrain ``c >= 1`` so the fitted curve is convex (default, required
        by the OA solver).  ``False`` reproduces the paper's raw Table II
        bounds (``c >= 0``).
    multistart:
        Number of optimizer starts: one heuristic start plus random restarts.
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
    if loss not in ("linear", "huber", "soft_l1"):
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
    if multistart < 1:
        raise ValueError("multistart must be >= 1")

    order = np.argsort(n)
    n, y = n[order], y[order]
    if w is not None:
        w = w[order]

    c_min = 1.0 if convex else 0.0
    lower = np.array([0.0, 0.0, c_min, 0.0])
    upper = np.array([np.inf, np.inf, _C_MAX, np.inf])

    def objective(params: np.ndarray) -> np.ndarray:
        r = _residuals(params, n, y)
        return r * w if w is not None else r

    log_n = np.log(n)

    def jac(params: np.ndarray) -> np.ndarray:
        J = _jacobian(params, n, log_n)
        return J * w[:, None] if w is not None else J

    rng = rng or default_rng()
    starts = [_heuristic_start(n, y, c_min)]
    y_scale = float(y.max())
    for _ in range(multistart - 1):
        starts.append(
            np.array(
                [
                    rng.uniform(0.0, 2.0 * y_scale * n[0]),
                    rng.uniform(0.0, 0.1 * y_scale / max(n[-1] ** c_min, 1.0)),
                    rng.uniform(c_min, _C_MAX),
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
                objective,
                jac,
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
    multistart: int = 5,
    rng: np.random.Generator | None = None,
    loss: str = "linear",
    weighted: bool = False,
) -> FitResult:
    """Fit one component's benchmark data.

    ``weighted=True`` aggregates replicates per node count and performs
    variance-weighted least squares: each mean observation is weighted by
    ``sqrt(count) / sigma`` with ``sigma`` the replicate standard deviation
    (falling back to the pooled relative scatter for un-replicated counts).
    With multiplicative timing noise this prevents the slow small-node runs
    from dominating the residual purely by magnitude.
    """
    if not weighted:
        n, y = bench.arrays()
        return fit_performance_model(n, y, multistart=multistart, rng=rng, loss=loss)
    rows = bench.aggregate()
    pooled = bench.relative_noise()
    n = np.array([r[0] for r in rows], dtype=float)
    y = np.array([r[1] for r in rows], dtype=float)
    sigmas = []
    for _, mean, std, count in rows:
        if std > 0:
            sigmas.append(std / math.sqrt(count))
        elif pooled > 0:
            sigmas.append(pooled * mean)
        else:
            sigmas.append(0.02 * mean)  # generic 2% prior scatter
    weights = 1.0 / np.maximum(np.array(sigmas), 1e-12)
    return fit_performance_model(
        n, y, multistart=multistart, rng=rng, loss=loss, weights=weights
    )


def fit_suite(
    suite: BenchmarkSuite,
    *,
    multistart: int = 5,
    rng: np.random.Generator | None = None,
    loss: str = "linear",
    skip_degenerate: bool = False,
    skipped: dict[str, str] | None = None,
) -> dict[str, FitResult]:
    """Fit every component in a suite (step 2 of the HSLB algorithm).

    ``skip_degenerate`` controls what happens when a component's benchmark
    data is degenerate (fewer than 2 usable points — e.g. after a degraded
    gather campaign pruned its failures): by default the first such
    component aborts the whole suite with ``ValueError``; with
    ``skip_degenerate=True`` the component is skipped and reported (in the
    optional ``skipped`` out-mapping, name -> reason) while every healthy
    component still gets its fit.

    Components are fitted one after another from the one ``rng`` stream, so
    a suite has exactly one answer per seed (the ledger pins objectives).
    """
    rng = rng or default_rng()
    degenerate = suite.degenerate_components(min_points=2)
    if degenerate:
        if not skip_degenerate:
            name, reason = next(iter(sorted(degenerate.items())))
            raise ValueError(f"component {name!r} is unfittable: {reason}")
        if skipped is not None:
            skipped.update(degenerate)
    fittable = [name for name in suite if name not in degenerate]
    fits: dict[str, FitResult] = {}
    for name in fittable:
        with span("fit.component", component=name) as sp:
            fit = fit_component(suite[name], multistart=multistart, rng=rng, loss=loss)
            sp.set_tag("r_squared", round(fit.r_squared, 6))
            sp.set_tag("points", fit.n_points)
        fits[name] = fit
    return fits

