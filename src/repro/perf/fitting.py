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

The solver contract: every start is solved by a port of scipy's bounded
TRF that is bit-identical to ``scipy.optimize.least_squares(method="trf")``
— the same ``x``, ``cost``, ``status`` and ``nfev`` on every start — at
less than half the cost, because at 4 parameters and 2-10 observations
scipy's wrappers, not its arithmetic, dominate.  There is one way in:
:func:`fit_suite` draws every component's starts first, then hands the
starts of each point count to
:func:`repro.perf.trf.least_squares_trf_lockstep` as one call (one stacked
numpy step for all of them, the last few finishing one after another on
their own :class:`_Curve`);
:func:`fit_performance_model` is the same call on one fit's five starts,
which all finish on their own curve.  Every fit keeps the first start of
strictly lowest cost.  scipy stays the test oracle
(``tests/perf/test_trf.py``); this module imports no scipy at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs.trace import get_tracer, span
from repro.perf.data import BenchmarkSuite
from repro.perf.model import PerformanceModel
from repro.perf.trf import TRFResult, least_squares_trf_lockstep
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
    """Residuals and Jacobian of one fit's data, for a lane that finishes on
    the TRF's scalar loop.

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


class _Curves:
    """:class:`_Curve` for many fits of one point count at once, one row per
    lane, for :func:`repro.perf.trf.least_squares_trf_lockstep`: every
    value is the one :class:`_Curve` computes for the lane alone, and
    :meth:`lane` is that curve."""

    def __init__(self, n: np.ndarray, y: np.ndarray, w: np.ndarray | None) -> None:
        self.n, self.y, self.w = n, y, w
        self.log_n = np.log(n)
        self.template = np.empty(n.shape + (4,))
        self.template[:, :, 0] = -1.0 / n
        self.template[:, :, 3] = -1.0

    def residuals(self, params: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        a, b, c, d = (col[:, None] for col in params.T)
        n = self.n[lanes]
        r = self.y[lanes] - (a / n + b * n**c + d)
        return r * self.w[lanes] if self.w is not None else r

    def jacobian(self, params: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        a, b, c, d = (col[:, None] for col in params.T)
        nc = self.n[lanes] ** c
        J = self.template[lanes]
        J[:, :, 1] = -nc
        J[:, :, 2] = -b * self.log_n[lanes] * nc
        return J * self.w[lanes][:, :, None] if self.w is not None else J

    def lane(self, i: int):
        """Lane ``i``'s own residuals and Jacobian (a :class:`_Curve`)."""
        curve = _Curve(self.n[i], self.y[i], None if self.w is None else self.w[i])
        return curve.residuals, curve.jacobian


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


_LOWER = np.array([0.0, 0.0, _C_MIN, 0.0])
_UPPER = np.array([np.inf, np.inf, _C_MAX, np.inf])
_MAX_NFEV = 2000


@dataclass(frozen=True)
class _Problem:
    """One fit, ready for the TRF: sorted observations, weights, the
    residual scale of its loss, and its :data:`FIT_STARTS` starts (clipped
    to the box)."""

    n: np.ndarray
    y: np.ndarray
    w: np.ndarray | None
    f_scale: float
    starts: np.ndarray


def _problem(
    nodes, seconds, weights, rng: np.random.Generator, loss: str
) -> _Problem:
    """Validate one fit's data and draw its starts from ``rng``."""
    if loss not in FIT_LOSSES:
        raise ValueError(f"unknown loss {loss!r}")
    n = np.asarray(nodes, dtype=float)
    y = np.asarray(seconds, dtype=float)
    if n.shape != y.shape or n.ndim != 1:
        raise ValueError("nodes and seconds must be 1-D arrays of equal length")
    if n.size < 2:
        raise ValueError(f"need at least 2 observations to fit, got {n.size}")
    if not (np.all(np.isfinite(n)) and np.all(np.isfinite(y))):
        raise ValueError("node counts and times must be finite")
    if np.any(n <= 0) or np.any(y <= 0):
        raise ValueError("node counts and times must be positive")
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != n.shape or not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("weights must be finite, positive and match observations")
    else:
        w = None

    order = np.argsort(n)
    n, y = n[order], y[order]
    if w is not None:
        w = w[order]

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
    return _Problem(n, y, w, f_scale, np.clip(starts, _LOWER, _UPPER))


def _solve(
    problems: list[_Problem], loss: str
) -> tuple[list[list[TRFResult | None]], int]:
    """Every start of every problem (one point count) through one
    :func:`least_squares_trf_lockstep` call: each problem's outcomes (None
    for a start the solver refuses), and the number of ticks."""
    lanes = [(p, x0) for p in problems for x0 in p.starts]
    weighted = any(p.w is not None for p in problems)
    curves = _Curves(
        np.array([p.n for p, _ in lanes]),
        np.array([p.y for p, _ in lanes]),
        np.array([np.ones_like(p.n) if p.w is None else p.w for p, _ in lanes])
        if weighted
        else None,
    )
    results, ticks = least_squares_trf_lockstep(
        curves.residuals, curves.jacobian, curves.lane,
        np.array([x0 for _, x0 in lanes]), _LOWER, _UPPER,
        max_nfev=_MAX_NFEV, loss=loss, f_scale=[p.f_scale for p, _ in lanes],
    )
    outcomes = [r if isinstance(r, TRFResult) else None for r in results]
    return [outcomes[i : i + FIT_STARTS] for i in range(0, len(lanes), FIT_STARTS)], ticks


def _best(problem: _Problem, outcomes: list[TRFResult | None]) -> FitResult:
    """The fit of the first start with the strictly lowest cost."""
    n, y = problem.n, problem.y
    best_params: np.ndarray | None = None
    best_cost = math.inf
    best_rss = math.inf
    for res in outcomes:
        if res is None:
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
        starts_tried=len(outcomes),
    )


def fit_performance_model(
    nodes: np.ndarray,
    seconds: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
    weights: np.ndarray | None = None,
) -> FitResult:
    """Fit ``T(n) = a/n + b n^c + d`` to observations by least squares
    (Table II line 10): the one-problem case of :func:`fit_suite`'s path,
    which tags no span.

    Parameters
    ----------
    nodes, seconds:
        Observation arrays (``D_j`` entries each, D >= 2 required; the paper
        recommends >= 4 and a benchmark quantifies why).  Every entry must
        be finite and positive.
    rng:
        Draws the random restarts.
    weights:
        Optional per-observation weights (1/sigma_i; finite and positive);
        residuals are scaled.
    """
    problem = _problem(nodes, seconds, weights, rng or default_rng(), "linear")
    (outcomes,), _ = _solve([problem], "linear")
    return _best(problem, outcomes)


def _fit_problems(problems: dict[str, _Problem], loss: str) -> dict[str, FitResult]:
    """Fit every problem, one :func:`_solve` call per point count.  Tags the
    enclosing span with the ``lanes`` (starts) and the lockstep ``ticks``."""
    groups: dict[int, list[str]] = {}
    for name, problem in problems.items():
        groups.setdefault(problem.n.size, []).append(name)
    solved: dict[str, list[TRFResult | None]] = {}
    ticks = 0
    for names in groups.values():
        outcomes, group_ticks = _solve([problems[name] for name in names], loss)
        solved.update(zip(names, outcomes))
        ticks += group_ticks
    enclosing = get_tracer().current()
    if enclosing is not None:
        enclosing.set_tag("lanes", FIT_STARTS * len(problems))
        enclosing.set_tag("ticks", ticks)

    fits: dict[str, FitResult] = {}
    for name, problem in problems.items():
        with span("fit.component", component=name) as sp:
            fit = _best(problem, solved[name])
            sp.set_tag("r_squared", round(fit.r_squared, 6))
            sp.set_tag("points", fit.n_points)
        fits[name] = fit
    return fits


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

    ``loss="linear"`` is the paper's plain least squares (Table II line 10).
    ``"huber"`` or ``"soft_l1"`` give robust fits that shrug off outlier
    benchmark runs (a node hiccup during the gather campaign) — §IV's "the
    weakest part of the HSLB algorithm is obtaining the actual performance
    data" risk, mitigated.  Residuals are scaled relative to the observed
    times so the robust threshold is resolution-independent.

    Every component's starts are drawn first, one component after another
    from the one ``rng`` stream, so a suite has exactly one answer per seed
    (the ledger pins objectives); the answer is the one
    :func:`fit_performance_model` gives each component with the same draws.
    The enclosing span (the pipeline's ``hslb.fit``) is tagged with the
    ``lanes`` (starts) and the lockstep ``ticks``.
    """
    rng = rng or default_rng()
    degenerate = suite.degenerate_components(min_points=2)
    if degenerate:
        name, reason = next(iter(sorted(degenerate.items())))
        raise ValueError(f"component {name!r} is unfittable: {reason}")
    problems = {
        name: _problem(*suite[name].arrays(), None, rng, loss) for name in suite
    }
    return _fit_problems(problems, loss)
