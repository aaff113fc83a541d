"""Bounded Trust Region Reflective least squares, small and exact.

:func:`least_squares_trf` is scipy's ``least_squares(method="trf")`` on a
box (``trf_bounds`` with ``tr_solver="exact"``, ``x_scale=1`` and the
``linear`` / ``huber`` / ``soft_l1`` losses), ported so that it performs the
**same floating-point operations in the same order**.  Every result — ``x``,
``cost``, ``status`` and ``nfev`` — is bit-identical to scipy's;
``tests/perf/test_trf.py`` holds the two against each other.

Why a port: Table II line 10 is a 4-parameter problem on 2-10 observations,
fitted from five starts per component.  At that size scipy spends most of
each residual evaluation in its wrappers (``VectorFunction`` memoisation,
``scipy.linalg.svd``'s argument checks, boolean-mask bookkeeping on
length-4 vectors), not in arithmetic.

What may run on Python floats, and what must stay numpy:

* Per-coordinate work — the Coleman–Li scaling vector, in-bounds tests,
  step-to-bound, the strict-feasibility nudge (``math.nextafter``), the
  ∞-norm of ``g·v`` and ``d = sqrt(v)`` — is correctly rounded IEEE
  arithmetic either way, so it runs on Python floats.
* Every reduction stays numpy: ``np.dot`` and matrix-vector products go to
  BLAS, whose summation order differs from a Python loop (on length-4
  vectors they disagree in about a quarter of random draws), and ``np.sum``
  is pairwise.  So do the loss kernels (array ``**`` is numpy's ``pow``)
  and the SVD, which calls the same LAPACK ``gesdd`` with the same
  ``lwork`` that ``scipy.linalg.svd`` would.
* Scalars stay the type scipy gives them (``np.float64`` out of a
  reduction), so a division by zero is ``inf`` with a warning, as there.

scipy is imported on the first SVD of a shape, never at module level: a
serving process never fits and must not pay for scipy.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

#: scipy's default ``ftol`` / ``xtol`` / ``gtol``.
_TOL = 1e-8

_EPS = np.finfo(float).eps


class TRFResult(NamedTuple):
    """The fields of scipy's ``OptimizeResult`` that a caller reads."""

    x: np.ndarray
    cost: float
    status: int
    nfev: int


# -- losses (scipy.optimize._lsq.least_squares) -------------------------------


def _huber(z, rho, cost_only):
    mask = z <= 1
    rho[0, mask] = z[mask]
    rho[0, ~mask] = 2 * z[~mask] ** 0.5 - 1
    if cost_only:
        return
    rho[1, mask] = 1
    rho[1, ~mask] = z[~mask] ** -0.5
    rho[2, mask] = 0
    rho[2, ~mask] = -0.5 * z[~mask] ** -1.5


def _soft_l1(z, rho, cost_only):
    t = 1 + z
    rho[0] = 2 * (t**0.5 - 1)
    if cost_only:
        return
    rho[1] = t**-0.5
    rho[2] = -0.5 * t**-1.5


_LOSSES = {"huber": _huber, "soft_l1": _soft_l1}


def _loss_function(m: int, loss: str, f_scale: float):
    if loss == "linear":
        return None
    kernel = _LOSSES[loss]
    rho = np.empty((3, m))

    def loss_function(f, cost_only=False):
        z = (f / f_scale) ** 2
        kernel(z, rho, cost_only)
        if cost_only:
            return 0.5 * f_scale**2 * np.sum(rho[0])
        rho[0] *= f_scale**2
        rho[2] /= f_scale**2
        return rho

    return loss_function


def _scale_for_robust_loss(J, f, rho):
    """scipy's ``scale_for_robust_loss_function``: both arrays in place."""
    J_scale = rho[1] + 2 * rho[2] * f**2
    J_scale[J_scale < _EPS] = _EPS
    J_scale **= 0.5
    f *= rho[1] / J_scale
    J *= J_scale[:, np.newaxis]
    return J, f


# -- linear algebra ------------------------------------------------------------


def _norm(a: np.ndarray):
    """``numpy.linalg.norm`` of a vector, without its dispatch: it is
    ``sqrt(a.dot(a))`` there too."""
    return np.sqrt(a.dot(a))


@functools.cache
def _gesdd(rows: int, cols: int) -> tuple[Callable, int]:
    """The LAPACK routine ``scipy.linalg.svd`` calls on a float64 matrix of
    this shape, and the workspace size it asks for."""
    from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

    gesdd, gesdd_lwork = get_lapack_funcs(
        ("gesdd", "gesdd_lwork"), dtype=np.float64, ilp64="preferred"
    )
    lwork = _compute_lwork(gesdd_lwork, rows, cols, compute_uv=True, full_matrices=False)
    return gesdd, lwork


def _svd(a: np.ndarray):
    """``scipy.linalg.svd(a, full_matrices=False)``: the same LAPACK routine
    and ``lwork``, the same finiteness check and errors, none of the rest."""
    gesdd, lwork = _gesdd(*a.shape)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    u, s, vt, info = gesdd(
        a, compute_uv=True, lwork=lwork, full_matrices=False, overwrite_a=False
    )
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal gesdd")
    return u, s, vt


# -- trust-region pieces (scipy.optimize._lsq.common) --------------------------


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha):
    """Moré's Levenberg–Marquardt trust-region solve on one SVD: at most ten
    root-finding steps, stopping once ``|‖p‖ - Delta| < 0.01 Delta``."""
    suf = s * uf

    if m >= n:
        threshold = _EPS * m * s[0]
        full_rank = s[-1] > threshold
    else:
        full_rank = False

    if full_rank:
        p = -V.dot(uf / s)
        if _norm(p) <= Delta:
            return p, 0.0

    # ``s**2`` and ``suf**2`` do not change inside one solve.
    s2 = s**2
    suf2 = suf**2

    def phi_and_derivative(alpha):
        denom = s2 + alpha
        p_norm = _norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf2 / denom**3) / p_norm
        return phi, phi_prime

    alpha_upper = _norm(suf) / Delta

    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0

    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)

    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)

        phi, phi_prime = phi_and_derivative(alpha)

        if phi < 0:
            alpha_upper = alpha

        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta

        if np.abs(phi) < 0.01 * Delta:
            break

    p = -V.dot(suf / (s2 + alpha))
    # Put p exactly on the boundary, as scipy does.
    p *= Delta / _norm(p)
    return p, alpha


def _intersect_trust_region(x, s, Delta):
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)
    q = -(b + math.copysign(d, b))
    t1 = q / a
    t2 = c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _build_quadratic_1d(J, g, s, diag, s0=None):
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    t = [float(lb), float(ub)]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    y = [ti * (a * ti + b) + c for ti in t]
    # np.argmin: the first minimum, or the first NaN.
    best = 0
    for i in range(1, len(y)):
        if y[best] != y[best]:
            break
        if y[i] < y[best] or y[i] != y[i]:
            best = i
    return t[best], y[best]


def _evaluate_quadratic(J, g, s, diag):
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _step_size_to_bound(x, s, lb, ub):
    """Smallest ``t >= 0`` with ``x + t s`` on a bound, and which bounds it
    hits (lists; ``-1`` / ``+1`` per coordinate, ``0`` for none)."""
    steps = []
    for xi, si, li, ui in zip(x, s, lb, ub):
        if si != 0:
            lo, hi = (li - xi) / si, (ui - xi) / si
            steps.append(hi if hi > lo or hi != hi else lo)
        else:
            steps.append(math.inf)
    min_step = min(steps)
    if any(st != st for st in steps):
        min_step = math.nan  # np.min propagates NaN
    hits = [
        (0 if si == 0 else (1 if si > 0 else -1)) if st == min_step else 0
        for st, si in zip(steps, s)
    ]
    return min_step, hits


def _in_bounds(x, lb, ub) -> bool:
    return all(li <= xi <= ui for xi, li, ui in zip(x, lb, ub))


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region step, its reflection and the Cauchy step."""
    pl = p.tolist()
    if _in_bounds([xi + pi for xi, pi in zip(x, pl)], lb, ub):
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, pl, lb, ub)

    # The reflected direction.
    r_h = p_h.copy()
    for i, hit in enumerate(hits):
        if hit:
            r_h[i] *= -1
    r = d * r_h

    # Restrict the trust-region step so that it hits the bound.
    p *= p_stride
    p_h *= p_stride
    x_on_bound = [xi + pi for xi, pi in zip(x, p.tolist())]

    # The reflected direction leaves the feasible region or the trust
    # region first.
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r.tolist(), lb, ub)

    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # Step back from the bound to stay strictly interior.
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h

    to_tr = Delta / _norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag.tolist(), lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr

    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _strictly_feasible(x, lb, ub, rstep):
    """scipy's ``make_strictly_feasible`` on Python floats."""
    out = []
    for xi, li, ui in zip(x, lb, ub):
        if rstep == 0:
            if xi >= ui:
                xi = math.nextafter(ui, li)
            elif xi <= li:
                xi = math.nextafter(li, ui)
        else:
            lower_dist, upper_dist = xi - li, ui - xi
            if math.isfinite(ui) and upper_dist <= min(
                lower_dist, rstep * max(1.0, abs(ui))
            ):
                xi = ui - rstep * max(1.0, abs(ui))
            elif math.isfinite(li) and lower_dist <= min(
                upper_dist, rstep * max(1.0, abs(li))
            ):
                xi = li + rstep * max(1.0, abs(li))
        if xi < li or xi > ui:
            xi = 0.5 * (li + ui)
        out.append(xi)
    return out


def _scaling(x, g, lb, ub):
    """Coleman–Li scaling: ``d = sqrt(v)``, the diagonal ``g·dv`` and the
    ∞-norm of ``g·v`` (NaN-propagating, as ``np.max`` is)."""
    d, diag_h = [], []
    g_norm = 0.0
    for xi, gi, li, ui in zip(x, g, lb, ub):
        if gi < 0 and math.isfinite(ui):
            vi, dvi = ui - xi, -1.0
        elif gi > 0 and math.isfinite(li):
            vi, dvi = xi - li, 1.0
        else:
            vi, dvi = 1.0, 0.0
        gv = abs(gi * vi)
        if gv > g_norm or gv != gv:
            g_norm = gv
        d.append(math.sqrt(vi))
        diag_h.append(gi * dvi)
    return d, diag_h, g_norm


# -- the driver ----------------------------------------------------------------


def least_squares_trf(
    fun: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    *,
    max_nfev: int,
    loss: str,
    f_scale: float,
) -> TRFResult:
    """``scipy.optimize.least_squares(fun, x0, jac, (lb, ub), method="trf",
    max_nfev=max_nfev, loss=loss, f_scale=f_scale)``, bit for bit.

    ``x0``, ``lb`` and ``ub`` are 1-D float arrays with ``lb < ub``, and
    ``loss`` is ``"linear"``, ``"huber"`` or ``"soft_l1"``.  Raises
    ``ValueError`` where scipy does: ``x0`` outside the bounds, a non-finite
    residual at ``x0``, a non-finite Jacobian reaching the SVD.  ``fun`` and
    ``jac`` receive arrays they may keep but must not modify, and must return
    fresh 1-D / 2-D float arrays: the solver scales them in place under a
    robust loss (scipy hands them copies instead).
    """
    lbl, ubl = lb.tolist(), ub.tolist()
    xl = x0.tolist()
    if not _in_bounds(xl, lbl, ubl):
        raise ValueError("Initial guess is outside of provided bounds")
    xl = _strictly_feasible(xl, lbl, ubl, rstep=1e-10)
    x = np.array(xl)

    f = fun(x)
    J = jac(x)
    if not np.isfinite(f).all():
        raise ValueError("Residuals are not finite in the initial point.")
    m, n = J.shape

    loss_function = _loss_function(m, loss, f_scale)
    if loss_function is not None:
        rho = loss_function(f)
        cost = 0.5 * np.sum(rho[0])
        J, f = _scale_for_robust_loss(J, f, rho)
    else:
        cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)

    d, _, _ = _scaling(xl, g.tolist(), lbl, ubl)
    Delta = _norm(x / np.array(d))
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.zeros((m + n, n))
    J_h = J_augmented[:m]
    alpha = 0.0
    nfev = 1
    status = None

    while True:
        dl, diag_l, g_norm = _scaling(xl, g.tolist(), lbl, ubl)
        if g_norm < _TOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break

        d = np.array(dl)
        diag_h = np.array(diag_l)
        g_h = d * g

        f_augmented[:m] = f
        np.multiply(J, d, out=J_h)
        for i, value in enumerate(diag_l):
            J_augmented[m + i, i] = math.sqrt(value)
        U, s, V = _svd(J_augmented)
        V = V.T
        uf = U.T.dot(f_augmented)

        # theta controls the step back from the bounds.
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                xl, J_h, diag_h, g_h, p, p_h, d, Delta, lbl, ubl, theta
            )

            xl_new = _strictly_feasible(
                [xi + si for xi, si in zip(xl, step.tolist())], lbl, ubl, rstep=0
            )
            x_new = np.array(xl_new)
            f_new = fun(x_new)
            nfev += 1

            step_h_norm = _norm(step_h)

            if not np.isfinite(f_new).all():
                Delta = 0.25 * step_h_norm
                continue

            if loss_function is not None:
                cost_new = loss_function(f_new, cost_only=True)
            else:
                cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new

            # scipy's update_tr_radius.
            Delta_new = Delta
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new *= 2.0

            # scipy's check_termination.
            ftol_ok = actual_reduction < _TOL * cost and ratio > 0.25
            xtol_ok = _norm(step) < _TOL * (_TOL + _norm(x))
            if ftol_ok or xtol_ok:
                status = 4 if ftol_ok and xtol_ok else (2 if ftol_ok else 3)
                break

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, xl = x_new, xl_new
            f = f_new
            cost = cost_new
            J = jac(x)
            if loss_function is not None:
                rho = loss_function(f)
                J, f = _scale_for_robust_loss(J, f, rho)
            g = J.T.dot(f)

    return TRFResult(x=x, cost=cost, status=0 if status is None else status, nfev=nfev)
