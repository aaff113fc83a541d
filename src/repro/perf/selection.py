"""Alternative scaling-model families and information-criterion selection.

§III-B: "Over the years, many performance models have been developed [4],
[8], [9] ... The performance models are often broadly defined and can be
applied to any program running in parallel."  The paper fixes one family
(Table II); this module makes the choice testable:

* ``table2``    — the full ``a/n + b n^c + d`` (4 parameters);
* ``amdahl``    — ``a/n + d`` (2 parameters; solvable by nonnegative linear
  least squares, no multistart needed);
* ``power-law`` — ``a n^(-p) + d`` (3 parameters; sublinear scaling codes).

:func:`select_model` fits all candidates and picks by corrected Akaike
information criterion (AICc), trading fit quality against parameter count —
with four to eight benchmark points, overfitting is a real hazard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.minlp.expr import Expr, ExprLike, VarRef, as_expr
from repro.perf.fitting import FitResult, fit_performance_model
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class PowerLawModel:
    """``T(n) = a * n^(-p) + d`` — sublinear strong scaling."""

    a: float
    p: float
    d: float = 0.0

    def __post_init__(self) -> None:
        check_positive("a", self.a, strict=False)
        check_positive("p", self.p)
        check_positive("d", self.d, strict=False)

    def time(self, n) -> np.ndarray | float:
        n = np.asarray(n, dtype=float)
        if np.any(n <= 0):
            raise ValueError("node counts must be positive")
        out = self.a * n ** (-self.p) + self.d
        return float(out) if out.ndim == 0 else out

    __call__ = time

    def expression(self, n: ExprLike) -> Expr:
        """Symbolic form for MINLP embedding (convex on n > 0 for p > 0)."""
        n = VarRef(n) if isinstance(n, str) else as_expr(n)
        return self.a * n ** (-self.p) + self.d

    @property
    def is_convex(self) -> bool:
        return True  # a, p >= 0 => a*n^-p convex on n > 0

    def __repr__(self) -> str:
        return f"PowerLawModel(a={self.a:.6g}, p={self.p:.6g}, d={self.d:.6g})"


@dataclass(frozen=True)
class CandidateFit:
    """One family's fit with its information-criterion score."""

    family: str
    model: object  # PerformanceModel | PowerLawModel
    rss: float
    n_params: int
    n_points: int

    @property
    def aicc(self) -> float:
        """Corrected AIC; +inf when there are too few points to correct."""
        d, k = self.n_points, self.n_params
        if d <= k + 1:
            return math.inf
        rss = max(self.rss, 1e-300)
        return d * math.log(rss / d) + 2 * k + (2 * k * (k + 1)) / (d - k - 1)

    @property
    def r_squared(self) -> float:
        return 1.0 - self.rss / max(self._tss, 1e-300)

    _tss: float = 1.0  # populated by the selection driver


def fit_amdahl(nodes: np.ndarray, seconds: np.ndarray) -> PerformanceModel:
    """Exact nonnegative least squares for ``a/n + d`` (design [1/n, 1])."""
    from scipy.optimize import nnls  # at the call site: see perf/fitting.py

    n = np.asarray(nodes, dtype=float)
    y = np.asarray(seconds, dtype=float)
    if n.size < 2:
        raise ValueError("need at least 2 observations")
    design = np.column_stack([1.0 / n, np.ones_like(n)])
    coeffs, _ = nnls(design, y)
    return PerformanceModel(a=float(coeffs[0]), b=0.0, c=1.0, d=float(coeffs[1]))


def fit_power_law(
    nodes: np.ndarray,
    seconds: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
) -> PowerLawModel:
    """Bounded least squares for ``a n^(-p) + d`` (one heuristic start plus
    three random ones)."""
    from scipy.optimize import least_squares  # at the call site: see perf/fitting.py

    n = np.asarray(nodes, dtype=float)
    y = np.asarray(seconds, dtype=float)
    if n.size < 3:
        raise ValueError("need at least 3 observations for the power law")
    rng = rng or default_rng()

    def residuals(params):
        a, p, d = params
        return y - (a * n ** (-p) + d)

    lower = np.array([0.0, 1e-3, 0.0])
    upper = np.array([np.inf, 2.5, np.inf])
    starts = [np.array([float(y[0] * n[0]), 1.0, 0.5 * float(y.min())])]
    for _ in range(3):
        starts.append(
            np.array(
                [
                    rng.uniform(0.1, 2.0) * y[0] * n[0],
                    rng.uniform(0.2, 2.0),
                    rng.uniform(0.0, y.min()),
                ]
            )
        )
    best = None
    best_rss = math.inf
    for x0 in starts:
        try:
            res = least_squares(
                residuals, np.clip(x0, lower, upper), bounds=(lower, upper)
            )
        except (ValueError, FloatingPointError):
            continue
        rss = float(np.sum(residuals(res.x) ** 2))
        if rss < best_rss:
            best_rss = rss
            best = res.x
    if best is None:
        raise RuntimeError("power-law fit failed from every start")
    return PowerLawModel(a=float(best[0]), p=float(best[1]), d=float(best[2]))


@dataclass
class SelectionResult:
    """Outcome of model selection across families."""

    candidates: dict[str, CandidateFit]
    best_family: str

    @property
    def best(self) -> CandidateFit:
        return self.candidates[self.best_family]

    def render(self) -> str:
        from repro.util.tables import format_table

        rows = [
            [c.family, c.n_params, c.rss, c.aicc, "*" if c.family == self.best_family else ""]
            for c in sorted(self.candidates.values(), key=lambda c: c.aicc)
        ]
        return format_table(
            ["family", "k", "RSS", "AICc", "chosen"],
            rows,
            title="scaling-model selection",
            float_fmt=".4g",
        )


def select_model(
    nodes: np.ndarray,
    seconds: np.ndarray,
    *,
    families: tuple[str, ...] = ("amdahl", "table2", "power-law"),
    rng: np.random.Generator | None = None,
) -> SelectionResult:
    """Fit each family and choose by AICc (ties go to fewer parameters)."""
    n = np.asarray(nodes, dtype=float)
    y = np.asarray(seconds, dtype=float)
    rng = rng or default_rng()
    tss = float(np.sum((y - y.mean()) ** 2))

    candidates: dict[str, CandidateFit] = {}
    for family in families:
        if family == "amdahl":
            model = fit_amdahl(n, y)
            rss = float(np.sum((y - model.time(n)) ** 2))
            k = 2
        elif family == "table2":
            fit: FitResult = fit_performance_model(n, y, rng=rng)
            model, rss, k = fit.model, fit.rss, 4
        elif family == "power-law":
            model = fit_power_law(n, y, rng=rng)
            rss = float(np.sum((y - model.time(n)) ** 2))
            k = 3
        else:
            raise ValueError(f"unknown model family {family!r}")
        cand = CandidateFit(
            family=family, model=model, rss=rss, n_params=k, n_points=int(n.size)
        )
        object.__setattr__(cand, "_tss", tss)
        candidates[family] = cand

    best = min(candidates.values(), key=lambda c: (c.aicc, c.n_params))
    return SelectionResult(candidates=candidates, best_family=best.family)
