"""Bounded Trust Region Reflective least squares, small and exact.

:func:`least_squares_trf_lockstep` is scipy's ``least_squares(method="trf")``
on a box (``trf_bounds`` with ``tr_solver="exact"``, ``x_scale=1`` and the
``linear`` / ``huber`` / ``soft_l1`` losses) for many problems of one shape
at once, one *lane* each, ported so that every lane performs the **same
floating-point operations in the same order**.  Every result — ``x``,
``cost``, ``status`` and ``nfev`` — is bit-identical to scipy's;
``tests/perf/test_trf.py`` holds the two against each other.

Why a port: Table II line 10 is a 4-parameter problem on 2-10 observations,
fitted from five starts per component.  At that size scipy spends most of
each residual evaluation in its wrappers (``VectorFunction`` memoisation,
``scipy.linalg.svd``'s argument checks, boolean-mask bookkeeping on
length-4 vectors), not in arithmetic.  The same goes for the port's own
glue, so it takes the short form of each step: the LAPACK routine is looked
up once per call, finiteness is one ``logical_and.reduce``, ``‖x‖`` is
taken once per outer iteration, and the in-loop nudge off the bounds
(``rstep = 0``) has its own loop.

Lanes step together, one trust-region attempt of every live lane per tick
as stacked numpy operations (the rules that keep each lane bit-identical
are listed above that code), until no more than :data:`_HANDOFF_LANES` are
live: each of those finishes on the scalar loop (:func:`_iterate`), on the
residuals and Jacobian of its own data that the caller supplies.  A call
with that few lanes (one fit's five starts) never ticks.

What may run on Python floats in the scalar loop, and what must stay numpy:

* Per-coordinate work — the Coleman–Li scaling vector, in-bounds tests,
  step-to-bound, the strict-feasibility nudge (``math.nextafter``), the
  ∞-norm of ``g·v`` and ``d = sqrt(v)`` — is correctly rounded IEEE
  arithmetic either way, so it runs on Python floats.
* Every reduction stays numpy: dot products (``a.dot(b)``, the BLAS call
  ``np.dot`` makes) and matrix-vector products go to BLAS, whose summation
  order differs from a Python loop (on length-4 vectors they disagree in
  about a quarter of random draws), and sums are ``np.add.reduce``
  (pairwise, what ``np.sum`` calls).  So do the loss kernels (array ``**``
  is numpy's ``pow``) and the SVD, which calls the same LAPACK ``gesdd``
  with the same ``lwork`` that ``scipy.linalg.svd`` would.
* Scalars stay the type scipy gives them (``np.float64`` out of a
  reduction), so a division by zero is ``inf`` with a warning, as there.

LAPACK is loaded on the first fit of a shape, never at module level, and
without ``scipy.linalg`` (:mod:`repro.util.scipy_ext`): a serving process
never fits and must not pay for scipy, and a pipeline process pays for the
one extension module it calls.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.util.scipy_ext import scipy_extension

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
            return 0.5 * f_scale**2 * np.add.reduce(rho[0])
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
    this shape, and the workspace size it asks for.

    The routine is what ``get_lapack_funcs(("gesdd", "gesdd_lwork"),
    dtype=np.float64, ilp64="preferred")`` returns — ``_flapack_64`` on an
    ILP64 LAPACK build, else ``_flapack`` — loaded without ``scipy.linalg``;
    ``lwork`` is ``_compute_lwork``'s, with its checks.
    """
    from scipy.__config__ import CONFIG

    ilp64 = CONFIG["Build Dependencies"]["lapack"]["has ilp64"]
    flapack = scipy_extension("linalg._flapack_64" if ilp64 else "linalg._flapack")
    work, info = flapack.dgesdd_lwork(rows, cols, compute_uv=True, full_matrices=False)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    lwork = int(work.real)
    if not 0 <= lwork <= np.iinfo(np.int64 if ilp64 else np.int32).max:
        bits = 64 if ilp64 else 32
        raise ValueError(
            "Too large work array required -- computation cannot be performed "
            f"with standard {bits}-bit LAPACK."
        )
    return flapack.dgesdd, lwork


def _svd(a: np.ndarray, gesdd: Callable, lwork: int):
    """``scipy.linalg.svd(a, full_matrices=False)`` with ``_gesdd(*a.shape)``:
    the same LAPACK routine and ``lwork``, the same finiteness check and
    errors, none of the rest."""
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
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
        phi_prime = -np.add.reduce(suf2 / denom**3) / p_norm
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
    a = s.dot(s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = x.dot(s)
    c = x.dot(x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)
    q = -(b + math.copysign(d, b))
    t1 = q / a
    t2 = c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _build_quadratic_1d(J, g, s, diag, s0=None):
    v = J.dot(s)
    a = v.dot(v)
    a += (s * diag).dot(s)
    a *= 0.5
    b = g.dot(s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += u.dot(v)
    c = 0.5 * u.dot(u) + g.dot(s0)
    b += (s0 * diag).dot(s)
    c += 0.5 * (s0 * diag).dot(s0)
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
    q = Js.dot(Js)
    q += (s * diag).dot(s)
    return 0.5 * q + s.dot(g)


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


def _strictly_inside(x, lb, ub):
    """``make_strictly_feasible(x, lb, ub, rstep=0)``: a coordinate on or
    past a bound moves one ulp inside it."""
    out = []
    for xi, li, ui in zip(x, lb, ub):
        if xi >= ui:
            xi = math.nextafter(ui, li)
        elif xi <= li:
            xi = math.nextafter(li, ui)
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


# -- the scalar loop ------------------------------------------------------------


def _iterate(
    fun, jac, loss_function, lbl, ubl, max_nfev,
    x, f, J, g, cost, Delta, alpha, nfev, status,
) -> TRFResult:
    """scipy's outer loop for one lane, from the head of an iteration: ``x``,
    ``f``, ``J`` (both scaled for a robust loss), ``g``, ``cost``, the
    trust radius, ``alpha``, the evaluations so far and the status the last
    inner loop set (None if it set none)."""
    xl = x.tolist()
    m, n = J.shape
    f_augmented = np.zeros(m + n)
    J_augmented = np.zeros((m + n, n))
    J_h = J_augmented[:m]
    gesdd, lwork = _gesdd(m + n, n)

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
        U, s, V = _svd(J_augmented, gesdd, lwork)
        V = V.T
        uf = U.T.dot(f_augmented)

        # theta controls the step back from the bounds.
        theta = max(0.995, 1 - g_norm)
        x_norm = _norm(x)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(
                xl, J_h, diag_h, g_h, p, p_h, d, Delta, lbl, ubl, theta
            )

            xl_new = _strictly_inside(
                [xi + si for xi, si in zip(xl, step.tolist())], lbl, ubl
            )
            x_new = np.array(xl_new)
            f_new = fun(x_new)
            nfev += 1

            step_h_norm = _norm(step_h)

            if not np.logical_and.reduce(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            if loss_function is not None:
                cost_new = loss_function(f_new, cost_only=True)
            else:
                cost_new = 0.5 * f_new.dot(f_new)
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
            xtol_ok = _norm(step) < _TOL * (_TOL + x_norm)
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


# -- the lockstep -------------------------------------------------------------
#
# Many independent problems of one shape (the starts of a suite's fits) step
# together: every array carries one row per lane, and each scalar step of
# the loop above becomes one stacked numpy operation on the lanes that take
# it.  Each lane performs the same floating-point operations as the loop
# above, so its x, cost, status and nfev are the same bytes:
#
# * elementwise arithmetic, comparisons and branches are IEEE either way; a
#   branch becomes a ``np.where`` on its condition, written with Python's
#   ``min`` / ``max`` semantics (the first argument unless the second is
#   strictly smaller / larger), not ``np.minimum`` / ``np.maximum``;
# * every reduction is a stacked ``np.matmul``, which makes one BLAS call per
#   lane (``ddot`` for a vector pair, ``gemv`` for a matrix-vector product):
#   the call ``.dot`` makes, provided each lane's operand has the layout the
#   loop above hands it.  scipy's ``gesdd`` returns ``U`` and ``Vt`` in
#   Fortran order, so ``U.T`` and ``V`` are C-ordered there and are made so
#   here;
# * the SVD is one batched ``np.linalg.svd`` (LAPACK ``gesdd`` per lane);
# * a power of a scalar is C ``pow`` there (``np.float64 ** e``), which is not
#   numpy's array ``sqrt`` / ``square`` in the last bit, so it is taken lane
#   by lane on scalars here (:func:`_scalar_pow`); array powers stay array
#   powers, and sums stay ``np.add.reduce``;
# * a lane whose inner loop ends on ftol or xtol passes one more head, where
#   gtol may overwrite its status with 1, as in the loop above.


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each lane's ``a.dot(b)`` on rows of ``(k, n)`` arrays: one ``ddot``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _rowmv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each lane's ``A.dot(v)`` on ``(k, r, c)`` and ``(k, c)``: one ``gemv``
    on the lane's own layout of ``A``."""
    return np.matmul(A, v[:, :, None])[:, :, 0]


def _rownorm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_rowdot(a, a))


def _scalar_pow(v: np.ndarray, e: float) -> np.ndarray:
    """``v_i ** e`` on ``np.float64`` scalars: C ``pow``, lane by lane."""
    return np.array([t**e for t in v], dtype=float)


def _pick_max(a, b):
    """Python's ``max(a, b)``, lane by lane."""
    return np.where(b > a, b, a)


def _pick_min(a, b):
    """Python's ``min(a, b)``, lane by lane."""
    return np.where(b < a, b, a)


def _lanes_in_bounds(x, lb, ub) -> np.ndarray:
    return np.logical_and.reduce((lb <= x) & (x <= ub), axis=1)


def _lanes_strictly_feasible(x, lb, ub, rstep):
    """scipy's ``make_strictly_feasible`` with ``rstep > 0``, lane by lane."""
    r_lb = rstep * _pick_max(1.0, np.abs(lb))
    r_ub = rstep * _pick_max(1.0, np.abs(ub))
    lower_dist, upper_dist = x - lb, ub - x
    to_ub = np.isfinite(ub) & (upper_dist <= _pick_min(lower_dist, r_ub))
    to_lb = ~to_ub & np.isfinite(lb) & (lower_dist <= _pick_min(upper_dist, r_lb))
    x = np.where(to_ub, ub - r_ub, np.where(to_lb, lb + r_lb, x))
    return np.where((x < lb) | (x > ub), 0.5 * (lb + ub), x)


def _lanes_strictly_inside(x, lb, ub):
    """:func:`_strictly_inside`, lane by lane."""
    x = np.where(x >= ub, np.nextafter(ub, lb), np.where(x <= lb, np.nextafter(lb, ub), x))
    return np.where((x < lb) | (x > ub), 0.5 * (lb + ub), x)


def _lanes_scaling(x, g, lb, ub):
    """:func:`_scaling`, lane by lane."""
    to_ub = (g < 0) & np.isfinite(ub)
    to_lb = ~to_ub & (g > 0) & np.isfinite(lb)
    v = np.where(to_ub, ub - x, np.where(to_lb, x - lb, 1.0))
    dv = np.where(to_ub, -1.0, np.where(to_lb, 1.0, 0.0))
    return np.sqrt(v), g * dv, np.max(np.abs(g * v), axis=1)


def _lanes_step_to_bound(x, s, lb, ub):
    """:func:`_step_size_to_bound`, lane by lane: the step and the mask of
    the coordinates whose bound it hits."""
    lo, hi = (lb - x) / s, (ub - x) / s
    steps = np.where(s != 0, np.where((hi > lo) | (hi != hi), hi, lo), np.inf)
    min_step = steps[:, 0]
    for j in range(1, steps.shape[1]):
        min_step = _pick_min(min_step, steps[:, j])
    min_step = np.where(np.isnan(steps).any(axis=1), np.nan, min_step)
    return min_step, (steps == min_step[:, None]) & (s != 0)


def _lanes_quadratic(J, g, s, diag, s0=None):
    """:func:`_build_quadratic_1d`, lane by lane."""
    v = _rowmv(J, s)
    a = _rowdot(v, v)
    a += _rowdot(s * diag, s)
    a *= 0.5
    b = _rowdot(g, s)
    if s0 is None:
        return a, b, 0.0
    u = _rowmv(J, s0)
    b += _rowdot(u, v)
    c = 0.5 * _rowdot(u, u) + _rowdot(g, s0)
    b += _rowdot(s0 * diag, s)
    c += 0.5 * _rowdot(s0 * diag, s0)
    return a, b, c


def _lanes_minimize_1d(a, b, lb, ub, c):
    """:func:`_minimize_quadratic_1d`, lane by lane: the first minimum of
    the values at ``lb``, ``ub`` and an interior extremum, or the first NaN."""
    extremum = -0.5 * b / a
    inner = (a != 0) & (lb < extremum) & (extremum < ub)
    y_lb = lb * (a * lb + b) + c
    y_ub = ub * (a * ub + b) + c
    y_ex = extremum * (a * extremum + b) + c
    take_ub = ~np.isnan(y_lb) & ((y_ub < y_lb) | np.isnan(y_ub))
    t = np.where(take_ub, ub, lb)
    y = np.where(take_ub, y_ub, y_lb)
    take_ex = inner & ~np.isnan(y) & ((y_ex < y) | np.isnan(y_ex))
    return np.where(take_ex, extremum, t), np.where(take_ex, y_ex, y)


def _lanes_evaluate_quadratic(J, g, s, diag):
    """:func:`_evaluate_quadratic`, lane by lane."""
    Js = _rowmv(J, s)
    q = _rowdot(Js, Js)
    q += _rowdot(s * diag, s)
    return 0.5 * q + _rowdot(s, g)


def _lanes_solve_trust_region(m, uf, s, V, Delta, alpha):
    """:func:`_solve_lsq_trust_region`, lane by lane: a lane leaves the
    root-finding loop at its own iteration."""
    k, n = s.shape
    suf = s * uf
    p = np.empty((k, n))
    alpha = alpha.copy()
    if m >= n:
        full_rank = s[:, -1] > _EPS * m * s[:, 0]
    else:
        full_rank = np.zeros(k, dtype=bool)
    gauss_newton = np.zeros(k, dtype=bool)  # the full-rank step fits
    if full_rank.any():
        rows = np.flatnonzero(full_rank)
        p_gn = -_rowmv(V[rows], uf[rows] / s[rows])
        fits = _rownorm(p_gn) <= Delta[rows]
        p[rows[fits]] = p_gn[fits]
        alpha[rows[fits]] = 0.0
        gauss_newton[rows[fits]] = True
    rest = np.flatnonzero(~gauss_newton)
    if rest.size == 0:
        return p, alpha

    suf, V, Delta, alpha = suf[rest], V[rest], Delta[rest], alpha[rest]
    full_rank = full_rank[rest]
    s2 = s[rest] ** 2
    suf2 = suf**2

    def phi_and_derivative(alpha):
        denom = s2 + alpha[:, None]
        p_norm = _rownorm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.add.reduce(suf2 / denom**3, axis=-1) / p_norm
        return phi, phi_prime

    def fallback(alpha, lower, upper, rows):
        """``max(0.001 upper, (lower upper) ** 0.5)`` on ``rows``."""
        if rows.any():
            alpha = alpha.copy()
            root = _scalar_pow(lower[rows] * upper[rows], 0.5)
            alpha[rows] = _pick_max(0.001 * upper[rows], root)
        return alpha

    alpha_upper = _rownorm(suf) / Delta
    alpha_lower = np.zeros(rest.size)
    if full_rank.any():
        phi, phi_prime = phi_and_derivative(np.zeros(rest.size))
        alpha_lower = np.where(full_rank, -phi / phi_prime, 0.0)
    alpha = fallback(alpha, alpha_lower, alpha_upper, ~full_rank & (alpha == 0))

    live = np.ones(rest.size, dtype=bool)
    for _ in range(10):
        alpha = fallback(
            alpha, alpha_lower, alpha_upper,
            live & ((alpha < alpha_lower) | (alpha > alpha_upper)),
        )
        phi, phi_prime = phi_and_derivative(alpha)
        alpha_upper = np.where(live & (phi < 0), alpha, alpha_upper)
        ratio = phi / phi_prime
        alpha_lower = np.where(live, _pick_max(alpha_lower, alpha - ratio), alpha_lower)
        alpha = np.where(live, alpha - (phi + Delta) * ratio / Delta, alpha)
        live &= ~(np.abs(phi) < 0.01 * Delta)
        if not live.any():
            break

    p_rest = -_rowmv(V, suf / (s2 + alpha[:, None]))
    p_rest *= (Delta / _rownorm(p_rest))[:, None]
    p[rest] = p_rest
    out = np.zeros(k)
    out[rest] = alpha
    return p, out


def _lanes_select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """:func:`_select_step`, lane by lane.  Returns the step, its scaled
    form, the predicted reduction and each lane's refusal (the
    ``ValueError`` scipy raises in the trust-region intersection, or None)."""
    k = x.shape[0]
    step, step_h = p.copy(), p_h.copy()
    predicted = np.empty(k)
    refusals: list[ValueError | None] = [None] * k
    inside = _lanes_in_bounds(x + p, lb, ub)
    if inside.any():
        rows = np.flatnonzero(inside)
        predicted[rows] = -_lanes_evaluate_quadratic(
            J_h[rows], g_h[rows], p_h[rows], diag_h[rows]
        )
    out = np.flatnonzero(~inside)
    if out.size == 0:
        return step, step_h, predicted, refusals

    x, J_h, diag_h, g_h = x[out], J_h[out], diag_h[out], g_h[out]
    p, p_h, d, Delta, theta = p[out], p_h[out], d[out], Delta[out], theta[out]
    p_stride, hits = _lanes_step_to_bound(x, p, lb, ub)

    # The reflected direction.
    r_h = np.where(hits, -p_h, p_h)
    r = d * r_h

    # Restrict the trust-region step so that it hits the bound.
    p = p * p_stride[:, None]
    p_h = p_h * p_stride[:, None]
    x_on_bound = x + p

    # The reflected direction leaves the feasible region or the trust
    # region first (scipy's intersect_trust_region, with its refusals).
    qa = _rowdot(r_h, r_h)
    qb = _rowdot(p_h, r_h)
    qc = _rowdot(p_h, p_h) - _scalar_pow(Delta, 2)
    for i in np.flatnonzero((qa == 0) | (qc > 0)):
        reason = "`s` is zero." if qa[i] == 0 else "`x` is not within the trust region."
        refusals[out[i]] = ValueError(reason)
    root = np.sqrt(qb * qb - qa * qc)
    q = -(qb + np.copysign(root, qb))
    t1, t2 = q / qa, qc / q
    to_tr = np.where(t1 < t2, t2, t1)
    to_bound, _ = _lanes_step_to_bound(x_on_bound, r, lb, ub)

    r_stride = _pick_min(to_bound, to_tr)
    ahead = r_stride > 0
    r_stride_l = np.where(ahead, (1 - theta) * p_stride / r_stride, 0.0)
    r_stride_u = np.where(
        ahead, np.where(r_stride == to_bound, theta * to_bound, to_tr), -1.0
    )
    r_value = np.full(out.size, np.inf)
    rows = np.flatnonzero(r_stride_l <= r_stride_u)
    if rows.size:
        a, b, c = _lanes_quadratic(
            J_h[rows], g_h[rows], r_h[rows], diag_h[rows], s0=p_h[rows]
        )
        t, r_value[rows] = _lanes_minimize_1d(
            a, b, r_stride_l[rows], r_stride_u[rows], c
        )
        r_h[rows] = r_h[rows] * t[:, None] + p_h[rows]
        r[rows] = r_h[rows] * d[rows]

    # Step back from the bound to stay strictly interior.
    p *= theta[:, None]
    p_h *= theta[:, None]
    p_value = _lanes_evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _rownorm(ag_h)
    to_bound, _ = _lanes_step_to_bound(x, ag, lb, ub)
    ag_stride = np.where(to_bound < to_tr, theta * to_bound, to_tr)
    a, b, _ = _lanes_quadratic(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _lanes_minimize_1d(a, b, 0.0, ag_stride, 0.0)
    ag_h *= ag_stride[:, None]
    ag *= ag_stride[:, None]

    take_p = (p_value < r_value) & (p_value < ag_value)
    take_r = ~take_p & (r_value < p_value) & (r_value < ag_value)
    step[out] = np.where(take_p[:, None], p, np.where(take_r[:, None], r, ag))
    step_h[out] = np.where(take_p[:, None], p_h, np.where(take_r[:, None], r_h, ag_h))
    predicted[out] = -np.where(take_p, p_value, np.where(take_r, r_value, ag_value))
    return step, step_h, predicted, refusals


#: A lane at the head of an iteration leaves the lockstep for the scalar
#: loop once no more than this many lanes are live, so a call of this many
#: lanes or fewer (one fit's five starts) never ticks: a tick costs a fixed
#: ~0.5 ms of numpy dispatch, an iteration of the scalar loop ~40 us, and
#: the slowest starts of a suite take twice the ticks of the median one.
#: Measured on the 120-lane FMO suite (best of 15, one BLAS thread, Xeon):
#: 57.9 / 52.9 / 50.9 / 51.3 / 54.3 ms at 0 / 4 / 8 / 12 / 16.
_HANDOFF_LANES = 8


class _Lockstep:
    """Every lane of one :func:`least_squares_trf_lockstep` call, one row
    per lane.  A lane is in one of two phases: at the head of an outer
    iteration (scaling, the gtol test, the SVD) or inside its inner loop
    (one trust-region attempt, one residual evaluation).  A tick runs the
    heads that are due, then one attempt of every live lane; a lane whose
    inner loop ends takes its step and is at the head again next tick."""

    def __init__(self, fun, jac, lane, x0, lb, ub, max_nfev, loss, f_scale):
        L, n = x0.shape
        self.fun, self.jac, self.lane, self.lb, self.ub = fun, jac, lane, lb, ub
        self.max_nfev = max_nfev
        self.loss = loss
        self.kernel = None if loss == "linear" else _LOSSES[loss]
        self.f_scale = np.asarray(f_scale, dtype=float)
        self.f_scale2 = _scalar_pow(self.f_scale, 2)
        self.results: list[TRFResult | ValueError | None] = [None] * L
        self.alive = np.zeros(L, dtype=bool)
        self.at_head = np.zeros(L, dtype=bool)
        self.ticks = 0

        lanes = np.arange(L)
        inside = _lanes_in_bounds(x0, lb, ub)
        self._refuse(lanes[~inside], "Initial guess is outside of provided bounds")
        lanes = lanes[inside]
        if not lanes.size:  # every start refused: nothing to evaluate
            return
        x = _lanes_strictly_feasible(x0[lanes], lb, ub, 1e-10)
        f, J = fun(x, lanes), jac(x, lanes)
        finite = np.logical_and.reduce(np.isfinite(f), axis=1)
        self._refuse(lanes[~finite], "Residuals are not finite in the initial point.")
        lanes, x, f, J = lanes[finite], x[finite], f[finite], J[finite]

        m = self.m = f.shape[1]
        self.x, self.g = np.empty((L, n)), np.empty((L, n))
        self.f, self.J = np.empty((L, m)), np.empty((L, m, n))
        self.cost = np.empty(L)
        self.x[lanes] = x
        self.cost[lanes] = self._store(lanes, f, J)
        d, _, _ = _lanes_scaling(x, self.g[lanes], lb, ub)
        Delta = _rownorm(x / d)
        self.Delta = np.ones(L)
        self.Delta[lanes] = np.where(Delta == 0, 1.0, Delta)
        self.alpha = np.zeros(L)
        self.nfev = np.ones(L, dtype=int)
        self.status = np.zeros(L, dtype=int)
        self.alive[lanes] = True
        self.at_head[lanes] = True
        # Each lane's outer iteration, set at its head.
        self.d, self.diag_h, self.g_h = (np.empty((L, n)) for _ in range(3))
        self.J_h = np.empty((L, m, n))
        self.uf, self.s, self.V = np.empty((L, n)), np.empty((L, n)), np.empty((L, n, n))
        self.theta, self.x_norm, self.actual = np.empty(L), np.empty(L), np.empty(L)

    # -- bookkeeping --------------------------------------------------------

    def _refuse(self, lanes, reason: str, error=ValueError) -> None:
        for i in lanes:
            self.results[i] = error(reason)
        self.alive[lanes] = False

    def _finish(self, lanes) -> None:
        for i in lanes:
            self.results[i] = TRFResult(
                x=self.x[i].copy(), cost=self.cost[i],
                status=int(self.status[i]), nfev=int(self.nfev[i]),
            )
        self.alive[lanes] = False

    # -- losses -------------------------------------------------------------

    def _rho(self, lanes, f, cost_only):
        z = (f / self.f_scale[lanes, None]) ** 2
        rho = np.empty((3,) + z.shape)
        self.kernel(z, rho, cost_only)
        return rho

    def _cost(self, lanes, f) -> np.ndarray:
        """Each lane's cost of residuals ``f`` under the loss."""
        if self.kernel is None:
            return 0.5 * _rowdot(f, f)
        rho = self._rho(lanes, f, cost_only=True)
        return 0.5 * self.f_scale2[lanes] * np.add.reduce(rho[0], axis=-1)

    def _store(self, lanes, f, J) -> np.ndarray:
        """Store ``f`` and ``J`` as the lanes' current residuals and Jacobian
        (scaled for a robust loss, in place) and their gradient; returns
        the cost at ``f``."""
        if self.kernel is None:
            cost = 0.5 * _rowdot(f, f)
        else:
            rho = self._rho(lanes, f, cost_only=False)
            fs2 = self.f_scale2[lanes, None]
            rho[0] *= fs2
            rho[2] /= fs2
            cost = 0.5 * np.add.reduce(rho[0], axis=-1)
            # scale_for_robust_loss_function
            J_scale = rho[1] + 2 * rho[2] * f**2
            J_scale[J_scale < _EPS] = _EPS
            J_scale **= 0.5
            f *= rho[1] / J_scale
            J *= J_scale[:, :, np.newaxis]
        self.f[lanes], self.J[lanes] = f, J
        self.g[lanes] = _rowmv(np.swapaxes(J, 1, 2), f)
        return cost

    # -- one tick -----------------------------------------------------------

    def _head(self, lanes) -> None:
        m, (lb, ub) = self.m, (self.lb, self.ub)
        x = self.x[lanes]
        d, diag_h, g_norm = _lanes_scaling(x, self.g[lanes], lb, ub)
        self.status[lanes[g_norm < _TOL]] = 1
        stop = (self.status[lanes] != 0) | (self.nfev[lanes] == self.max_nfev)
        self._finish(lanes[stop])
        keep = ~stop
        lanes, x, d, diag_h, g_norm = lanes[keep], x[keep], d[keep], diag_h[keep], g_norm[keep]
        k, n = d.shape
        if k == 0:
            return

        J_h = self.J[lanes] * d[:, None, :]
        J_augmented = np.zeros((k, m + n, n))
        J_augmented[:, :m] = J_h
        J_augmented[:, m + np.arange(n), np.arange(n)] = np.sqrt(diag_h)
        finite = np.logical_and.reduce(np.isfinite(J_augmented), axis=(1, 2))
        self._refuse(lanes[~finite], "array must not contain infs or NaNs")
        keep = finite
        try:
            U, s, Vt = np.linalg.svd(J_augmented[keep], full_matrices=False)
        except np.linalg.LinAlgError:
            keep = keep.copy()
            for i in np.flatnonzero(keep):
                try:
                    np.linalg.svd(J_augmented[i], full_matrices=False)
                except np.linalg.LinAlgError:
                    keep[i] = False
                    self._refuse(lanes[i : i + 1], "SVD did not converge", np.linalg.LinAlgError)
            U, s, Vt = np.linalg.svd(J_augmented[keep], full_matrices=False)
        lanes, x, d, diag_h, g_norm = lanes[keep], x[keep], d[keep], diag_h[keep], g_norm[keep]
        f_augmented = np.zeros((lanes.size, m + n))
        f_augmented[:, :m] = self.f[lanes]

        self.d[lanes], self.diag_h[lanes] = d, diag_h
        self.g_h[lanes] = d * self.g[lanes]
        self.J_h[lanes] = J_h[keep]
        # U.T and V in the layout scipy's Fortran-ordered U and Vt give them.
        self.uf[lanes] = _rowmv(np.ascontiguousarray(np.swapaxes(U, 1, 2)), f_augmented)
        self.s[lanes] = s
        self.V[lanes] = np.ascontiguousarray(np.swapaxes(Vt, 1, 2))
        self.theta[lanes] = _pick_max(0.995, 1 - g_norm)
        self.x_norm[lanes] = _rownorm(x)
        self.actual[lanes] = -1.0
        self.at_head[lanes] = False

    def _attempt(self, lanes) -> None:
        lb, ub = self.lb, self.ub
        Delta = self.Delta[lanes]
        d = self.d[lanes]
        p_h, alpha = _lanes_solve_trust_region(
            self.m, self.uf[lanes], self.s[lanes], self.V[lanes], Delta, self.alpha[lanes]
        )
        self.alpha[lanes] = alpha
        x = self.x[lanes]
        step, step_h, predicted, refusals = _lanes_select_step(
            x, self.J_h[lanes], self.diag_h[lanes], self.g_h[lanes], d * p_h, p_h,
            d, Delta, lb, ub, self.theta[lanes],
        )
        refused = np.array([r is not None for r in refusals])
        if refused.any():
            for i in np.flatnonzero(refused):
                self.results[lanes[i]] = refusals[i]
            self.alive[lanes[refused]] = False
            keep = ~refused
            lanes, Delta, x = lanes[keep], Delta[keep], x[keep]
            step, step_h, predicted = step[keep], step_h[keep], predicted[keep]

        x_new = _lanes_strictly_inside(x + step, lb, ub)
        f_new = self.fun(x_new, lanes)
        self.nfev[lanes] += 1
        step_h_norm = _rownorm(step_h)
        finite = np.logical_and.reduce(np.isfinite(f_new), axis=1)
        self.Delta[lanes[~finite]] = 0.25 * step_h_norm[~finite]

        cost_new = self._cost(lanes, f_new)
        actual = self.cost[lanes] - cost_new
        # scipy's update_tr_radius.
        ratio = np.where(
            predicted > 0,
            actual / predicted,
            np.where((predicted == actual) & (actual == 0), 1.0, 0.0),
        )
        Delta_new = np.where(
            ratio < 0.25,
            0.25 * step_h_norm,
            np.where((ratio > 0.75) & (step_h_norm > 0.95 * Delta), Delta * 2.0, Delta),
        )
        # scipy's check_termination.
        ftol_ok = (actual < _TOL * self.cost[lanes]) & (ratio > 0.25)
        xtol_ok = _rownorm(step) < _TOL * (_TOL + self.x_norm[lanes])
        status = np.where(ftol_ok & xtol_ok, 4, np.where(ftol_ok, 2, np.where(xtol_ok, 3, 0)))
        status[~finite] = 0
        self.actual[lanes[finite]] = actual[finite]
        self.status[lanes] = status
        go_on = np.flatnonzero(finite & (status == 0))
        self.alpha[lanes[go_on]] *= Delta[go_on] / Delta_new[go_on]
        self.Delta[lanes[go_on]] = Delta_new[go_on]

        done = (status != 0) | ~(
            (self.actual[lanes] <= 0) & (self.nfev[lanes] < self.max_nfev)
        )
        accepted = np.flatnonzero(done & (self.actual[lanes] > 0))
        if accepted.size:
            moved = lanes[accepted]
            self.x[moved] = x_new[accepted]
            self.cost[moved] = cost_new[accepted]
            self._store(moved, f_new[accepted], self.jac(x_new[accepted], moved))
        self.at_head[lanes[done]] = True

    def _handoff(self, lanes) -> None:
        """Finish ``lanes``, each at the head of an iteration, one after
        another on the scalar loop, each on its own residuals and Jacobian."""
        lbl, ubl = self.lb.tolist(), self.ub.tolist()
        for i in lanes:
            fun, jac = self.lane(int(i))
            try:
                self.results[i] = _iterate(
                    fun, jac,
                    _loss_function(self.m, self.loss, float(self.f_scale[i])),
                    lbl, ubl, self.max_nfev,
                    self.x[i].copy(), self.f[i].copy(), self.J[i].copy(), self.g[i].copy(),
                    self.cost[i], self.Delta[i], self.alpha[i], int(self.nfev[i]),
                    int(self.status[i]) or None,
                )
            except ValueError as refusal:
                self.results[i] = refusal
        self.alive[lanes] = False

    def run(self) -> None:
        while True:
            heads = np.flatnonzero(self.alive & self.at_head)
            if heads.size and np.count_nonzero(self.alive) <= _HANDOFF_LANES:
                self._handoff(heads)
            elif heads.size:
                self._head(heads)
            lanes = np.flatnonzero(self.alive)
            if lanes.size == 0:
                return
            self.ticks += 1
            self._attempt(lanes)


def least_squares_trf_lockstep(
    fun: Callable[[np.ndarray, np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lane: Callable[[int], tuple[Callable, Callable]],
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    *,
    max_nfev: int,
    loss: str,
    f_scale,
) -> tuple[list[TRFResult | ValueError], int]:
    """``scipy.optimize.least_squares(fun_i, x0[i], jac_i, (lb, ub),
    method="trf", max_nfev=max_nfev, loss=loss, f_scale=f_scale[i])`` for
    every lane ``i`` at once, bit for bit.

    ``x0`` is ``(L, n)``, ``lb < ub`` are the ``(n,)`` box every lane
    shares, ``loss`` (``"linear"``, ``"huber"`` or ``"soft_l1"``) is every
    lane's, ``f_scale`` holds one entry per lane.  ``fun(x, lanes)`` and
    ``jac(x, lanes)`` evaluate the lanes ``lanes`` at the rows of ``x`` and
    return fresh ``(k, m)`` / C-ordered ``(k, m, n)`` arrays (``m`` is the
    same for every lane); ``lane(i)`` returns lane ``i``'s own
    ``(fun_i, jac_i)`` on a 1-D ``x``, with the same values, fresh 1-D /
    2-D arrays, for the lanes that finish on the scalar loop.  The solver
    scales what they return in place under a robust loss (scipy hands them
    copies instead).

    Returns one entry per lane — its :class:`TRFResult`, or the
    ``ValueError`` scipy raises for it (a start outside the box, a
    non-finite residual at the start, a non-finite Jacobian reaching the
    SVD), with scipy's message — and the number of ticks: the lockstep
    attempts of the slowest lane, before the last :data:`_HANDOFF_LANES`
    lanes finish on the scalar loop (0 for a call with no more lanes than
    that).
    """
    with np.errstate(all="ignore"):
        batch = _Lockstep(fun, jac, lane, x0, lb, ub, max_nfev, loss, f_scale)
        batch.run()
    return batch.results, batch.ticks
