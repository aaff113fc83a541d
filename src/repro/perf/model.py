"""The paper's performance function (Table II, line 1).

``T_j(n_j) = T^sca + T^nln + T^ser = a_j / n_j + b_j n_j^{c_j} + d_j`` where

* ``a/n``      — the perfectly-scalable contribution (Amdahl's parallel part);
* ``b n^c``    — the "everything else" term (communication, initialization,
  partially parallel code); on Intrepid this term was increasing, with
  ``b, c`` fitted "almost equal to zero";
* ``d``        — the serial floor that dominates at large ``n``.

All parameters are constrained nonnegative (Table II, line 11), which makes
each term — hence the sum — convex for ``c >= 1`` and guarantees the MINLP's
nonlinear constraints are convex (§III-E).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.minlp.expr import Expr, ExprLike, VarRef, as_expr
from repro.util.validation import check_positive


@dataclass(frozen=True)
class PerformanceModel:
    """Fitted (or ground-truth) parameters of ``T(n) = a/n + b n^c + d``."""

    a: float
    b: float = 0.0
    c: float = 1.0
    d: float = 0.0

    def __post_init__(self) -> None:
        check_positive("a", self.a, strict=False)
        check_positive("b", self.b, strict=False)
        check_positive("c", self.c, strict=False)
        check_positive("d", self.d, strict=False)

    @classmethod
    def amdahl(cls, parallel_time: float, serial_time: float) -> "PerformanceModel":
        """Pure Amdahl's-law model: ``T(n) = parallel/n + serial`` (b = 0)."""
        return cls(a=parallel_time, b=0.0, c=1.0, d=serial_time)

    # -- evaluation ------------------------------------------------------

    def time(self, n) -> np.ndarray | float:
        """Predicted wall-clock seconds on ``n`` nodes (scalar or array).

        A Python ``int`` / ``float`` skips the array machinery, bit-identical
        to the array path: the power goes through the same ``np.power`` loop
        (Python's ``**`` calls libm, which differs from numpy's vectorised
        ``pow`` in the last bit on AVX-512 hosts), the rest is IEEE
        arithmetic in the same order.
        """
        if (type(n) is int or type(n) is float) and n > 0:
            x = float(n)
            return self.a / x + self.b * float(np.power(x, self.c)) + self.d
        n = np.asarray(n, dtype=float)
        if np.any(n <= 0):
            raise ValueError("node counts must be positive")
        out = self.a / n + self.b * n**self.c + self.d
        return float(out) if out.ndim == 0 else out

    __call__ = time

    def derivative(self, n) -> np.ndarray | float:
        """dT/dn — used by tests to confirm the symbolic path."""
        n = np.asarray(n, dtype=float)
        out = -self.a / n**2 + self.b * self.c * n ** (self.c - 1.0)
        return float(out) if out.ndim == 0 else out

    # -- algebra -------------------------------------------------------------

    def expression(self, n: ExprLike) -> Expr:
        """The model as a symbolic expression over node-count expression ``n``.

        This is how the HSLB formulation embeds fitted curves into the MINLP
        constraints of Table I.
        """
        n = as_expr(n) if not isinstance(n, str) else VarRef(n)
        terms: Expr = as_expr(self.d)
        if self.a:
            terms = terms + self.a / n
        if self.b:
            terms = terms + self.b * n**self.c
        return terms

    @property
    def is_convex(self) -> bool:
        """True when every term is convex on n > 0 (requires c >= 1 or b = 0)."""
        return self.b == 0.0 or self.c >= 1.0

    # -- analysis -------------------------------------------------------------

    def optimal_nodes(self, n_max: float = 1e9) -> float:
        """Continuous ``n`` minimizing T(n) (the cost-efficiency sweet spot).

        With ``b = 0`` the model is monotone decreasing, so the minimum sits
        at ``n_max``; otherwise solve ``T'(n) = 0``:
        ``n* = (a / (b c))^(1/(c+1))``.
        """
        if self.b == 0.0 or self.c == 0.0:
            return float(n_max)
        n_star = (self.a / (self.b * self.c)) ** (1.0 / (self.c + 1.0))
        return float(min(n_star, n_max))

    def efficiency(self, n) -> np.ndarray | float:
        """Parallel efficiency vs a single node: ``T(1) / (n T(n))``."""
        n = np.asarray(n, dtype=float)
        out = self.time(1.0) / (n * self.time(n))
        return float(out) if out.ndim == 0 else out

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return (
            f"PerformanceModel(a={self.a:.6g}, b={self.b:.6g}, "
            f"c={self.c:.6g}, d={self.d:.6g})"
        )
