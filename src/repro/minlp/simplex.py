"""Vectorized two-phase primal simplex with cross-solve basis reuse.

This is the dependency-free counterpart of :func:`repro.minlp.linprog.solve_lp`
(which wraps scipy/HiGHS) and the engine branch-and-bound node LPs run on
while they fit its dense tableau.  It exists for two reasons:

* **speed** — branch-and-bound re-solves near-identical LPs thousands of
  times; this engine accepts the parent node's optimal basis and restores
  feasibility with a handful of dual-simplex pivots instead of re-running
  two-phase simplex from artificials;
* **validation** — property-based tests cross-check HiGHS, this
  implementation, and the retained loop-based reference
  (``tests/minlp/simplex_reference.py``) on random LPs, so a regression in
  how we translate range constraints shows up as a disagreement.

Every inner loop is numpy-batched: the pivot is a single rank-1 update over
the whole tableau, the entering column is a Dantzig ``argmin`` over reduced
costs (with a deterministic switch to Bland's rule after a stall, which
restores the anti-cycling guarantee), and the ratio test is a masked
vectorized divide with Bland tie-breaking on basis indices.

Transformation to standard form ``min c·y  s.t.  Ay = b, y >= 0``:

1. shift variables with a finite lower bound (``x = lb + y``); mirror
   variables with only a finite upper bound (``x = ub − y``); split free
   variables (``x = y⁺ − y⁻``);
2. re-emit finite upper bounds of shifted variables as explicit ``<=`` rows
   (placed *first* so appended cut rows never renumber existing slacks);
3. split each two-sided row into ``<=`` / ``>=`` rows, add slack/surplus
   columns, flip rows until ``b >= 0``;
4. cold start: phase 1 minimizes the sum of artificials, phase 2 the true
   objective.  Warm start: the supplied basis is refactorized directly
   (``B⁻¹[A | b]`` via one dense solve), primal feasibility is restored by
   dual-simplex pivots, and phase 1 is skipped entirely.

Basis handoff protocol (used by branch-and-bound): a solve returns a
:class:`SimplexBasis` carrying the basic column per row plus a *structure
signature* (variable kinds, upper-row count, per-row sense pattern).  A
later solve may reuse it when the signature matches — bound changes only
move ``b``, so the parent basis stays dual feasible — or when the child has
extra trailing rows (appended cuts), whose slacks extend the basis.  Any
structural mismatch is a miss and falls back to a cold start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.minlp.linprog import LinearProgram, LPResult
from repro.minlp.solution import Status
from repro.obs import telemetry

_TOL = 1e-9
_FEAS_TOL = 1e-7
#: Consecutive non-improving Dantzig pivots before switching to Bland's rule.
_STALL_LIMIT = 32
#: Pivots one simplex phase may spend before it reports ITERATION_LIMIT.
_MAX_ITER = 20000


@dataclass(frozen=True)
class SimplexBasis:
    """Optimal basis of a standard-form solve, reusable across related solves.

    ``columns[i]`` is the basic column of standard-form row ``i`` (artificial
    columns never appear — a basis that still carries one is not captured).
    ``signature`` fingerprints the standard-form structure; see
    :func:`basis_compatible` for the reuse rule.
    """

    columns: tuple[int, ...]
    signature: tuple


def basis_compatible(prior: SimplexBasis, signature: tuple) -> bool:
    """True when ``prior`` can warm-start a solve with this structure.

    Variable kinds, y-width, and upper-row count must match exactly; the
    prior row-sense pattern must be a *prefix* of the new one (trailing rows
    are appended cuts whose slacks extend the basis).
    """
    p, s = prior.signature, signature
    if p[0] != s[0] or p[1] != s[1] or p[2] != s[2]:
        return False
    return len(p[3]) <= len(s[3]) and s[3][: len(p[3])] == p[3]


class _StandardForm:
    """Vectorized original-variable -> standard-form mapping."""

    def __init__(self, lp: LinearProgram) -> None:
        lb, ub, c = lp.var_lb, lp.var_ub, lp.c
        fin_lb = np.isfinite(lb)
        fin_ub = np.isfinite(ub)
        self.mirror = ~fin_lb & fin_ub  # x = ub - y
        self.free = ~fin_lb & ~fin_ub  # x = y+ - y-
        has_upper = fin_lb & fin_ub  # shifted var keeps ub as a <= row

        span = np.where(self.free, 2, 1)
        self.first = np.concatenate(([0], np.cumsum(span)[:-1])).astype(int)
        self.num_y = int(span.sum())
        self.sign = np.where(self.mirror, -1.0, 1.0)
        # shift -> lb, mirror -> ub, free -> 0 (no shift).
        self.offset = np.where(fin_lb, lb, np.where(fin_ub, ub, 0.0))

        cost = np.zeros(self.num_y)
        cost[self.first] = c * self.sign
        if self.free.any():
            cost[self.first[self.free] + 1] = -c[self.free]
        self.cost = cost
        self.const_shift = lp.c0 + float(c @ self.offset)

        self.upper_rows = [
            (int(self.first[j]), float(ub[j] - lb[j])) for j in np.flatnonzero(has_upper)
        ]
        # Per-variable structure code: 0 shift / 1 mirror / 2 free, +4 if the
        # variable also emits an upper row.  Part of the basis signature.
        self.kinds = tuple(
            int(k) for k in self.mirror * 1 + self.free * 2 + has_upper * 4
        )

    def rows_over_y(self, A: np.ndarray) -> np.ndarray:
        """Translate constraint rows over x into rows over y (whole matrix)."""
        R = np.zeros((A.shape[0], self.num_y))
        R[:, self.first] = A * self.sign
        if self.free.any():
            R[:, self.first[self.free] + 1] = -A[:, self.free]
        return R

    def original_x(self, y: np.ndarray) -> np.ndarray:
        x = self.offset + self.sign * y[self.first]
        if self.free.any():
            x[self.free] -= y[self.first[self.free] + 1]
        return x


@dataclass
class _Assembled:
    """Standard-form system: ``A y' = b`` over [y | slack] columns, b >= 0."""

    A: np.ndarray  # m × (num_y + num_slack), rows pre-flipped so b >= 0
    b: np.ndarray
    slack_of_row: np.ndarray  # slack column per row, -1 for equality rows
    signature: tuple


def _assemble(lp: LinearProgram, sf: _StandardForm) -> _Assembled:
    m0 = lp.num_rows
    if m0:
        R = sf.rows_over_y(lp.A)
        const = lp.A @ sf.offset
    else:
        R = np.zeros((0, sf.num_y))
        const = np.zeros(0)
    lo = lp.row_lb - const
    hi = lp.row_ub - const
    eq = lp.row_lb == lp.row_ub
    le = ~eq & np.isfinite(hi)
    ge = ~eq & np.isfinite(lo)

    # Expand each original row in order: eq, or le-then-ge.  lexsort keeps
    # the expansion stable so appended cut rows land strictly after existing
    # ones — the prefix property the basis handoff relies on.
    src = np.concatenate([np.flatnonzero(eq), np.flatnonzero(le), np.flatnonzero(ge)])
    kind = np.concatenate(
        [np.zeros(int(eq.sum()), int), np.ones(int(le.sum()), int), np.full(int(ge.sum()), 2)]
    )
    order = np.lexsort((kind, src))
    src, kind = src[order], kind[order]
    body = R[src]
    rhs = np.where(kind == 1, hi[src], lo[src])

    u = len(sf.upper_rows)
    upper_body = np.zeros((u, sf.num_y))
    if u:
        upper_body[np.arange(u), [yi for yi, _ in sf.upper_rows]] = 1.0
    Y = np.vstack([upper_body, body]) if u or len(src) else np.zeros((0, sf.num_y))
    b = np.concatenate([np.array([ubv for _, ubv in sf.upper_rows]), rhs])

    m = Y.shape[0]
    has_slack = np.concatenate([np.ones(u, bool), kind != 0])
    num_slack = int(has_slack.sum())
    slack_sign = np.concatenate([np.ones(u), np.where(kind == 2, -1.0, 1.0)])
    S = np.zeros((m, num_slack))
    slack_rows = np.flatnonzero(has_slack)
    S[slack_rows, np.arange(num_slack)] = slack_sign[slack_rows]
    A = np.hstack([Y, S])

    neg = b < 0.0
    if neg.any():
        A[neg] *= -1.0
        b = np.where(neg, -b, b)

    slack_of_row = np.full(m, -1, dtype=int)
    slack_of_row[slack_rows] = sf.num_y + np.arange(num_slack)
    signature = (sf.kinds, sf.num_y, u, tuple(int(k) for k in kind))
    return _Assembled(A, b, slack_of_row, signature)


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pr = T[row] / T[row, col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    T -= colv[:, None] * pr[None, :]
    T[row] = pr
    basis[row] = col


def _phase(T: np.ndarray, basis: np.ndarray, ncols: int) -> tuple[Status, int]:
    """Primal simplex iterations on tableau ``T`` (last row = objective).

    Entering: Dantzig most-negative reduced cost; after :data:`_STALL_LIMIT`
    non-improving pivots the rule switches to Bland's smallest index until
    the objective moves again, so degenerate instances cannot cycle.
    Leaving: vectorized ratio test, ties broken by smallest basis index.
    """
    m = T.shape[0] - 1
    pivots = 0
    bland = False
    stall = 0
    last = T[-1, -1]
    ratios = np.empty(m)  # reused across iterations: this loop is the hot path
    while pivots < _MAX_ITER:
        obj = T[-1, :ncols]
        if bland:
            neg = np.flatnonzero(obj < -_TOL)
            if neg.size == 0:
                return Status.OPTIMAL, pivots
            col = int(neg[0])
        else:
            col = int(np.argmin(obj))
            if obj[col] >= -_TOL:
                return Status.OPTIMAL, pivots
        a = T[:m, col]
        ratios.fill(np.inf)
        np.divide(T[:m, -1], a, out=ratios, where=a > _TOL)
        rmin = ratios.min()
        if rmin == np.inf:  # no positive pivot entry in the column
            return Status.UNBOUNDED, pivots
        ties = np.flatnonzero(ratios <= rmin + _TOL)
        row = int(ties[0]) if ties.size == 1 else int(ties[np.argmin(basis[ties])])
        _pivot(T, basis, row, col)
        pivots += 1
        now = T[-1, -1]
        if now > last + 1e-12:
            stall, bland = 0, False
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        last = now
    return Status.ITERATION_LIMIT, pivots


def _dual_phase(T: np.ndarray, basis: np.ndarray, ncols: int) -> tuple[Status, int]:
    """Dual simplex: restore primal feasibility from a dual-feasible basis.

    Used after a warm start whose rhs moved (bound tightening, appended
    cuts).  Returns OPTIMAL once the rhs is nonnegative, INFEASIBLE when a
    negative row has no eligible pivot (the LP itself is infeasible), or
    ITERATION_LIMIT (caller falls back to a cold start).
    """
    m = T.shape[0] - 1
    pivots = 0
    while pivots < _MAX_ITER:
        rhs = T[:m, -1]
        row = int(np.argmin(rhs))
        if rhs[row] >= -_FEAS_TOL:
            return Status.OPTIMAL, pivots
        r = T[row, :ncols]
        cand = r < -_TOL
        if not cand.any():
            return Status.INFEASIBLE, pivots
        ratios = np.full(ncols, np.inf)
        np.divide(T[-1, :ncols], -r, out=ratios, where=cand)
        col = int(np.flatnonzero(ratios <= ratios.min() + _TOL)[0])
        _pivot(T, basis, row, col)
        pivots += 1
    return Status.ITERATION_LIMIT, pivots


def _capture_basis(basis: np.ndarray, ncols: int, signature: tuple) -> SimplexBasis | None:
    if (basis >= ncols).any():  # an artificial survived (redundant row)
        return None
    # Stored sorted: the basic *set* is what matters (row assignment is an
    # artifact of the pivot path), and a canonical order keeps downstream
    # refactorizations bit-reproducible.
    return SimplexBasis(tuple(sorted(int(c) for c in basis)), signature)


def _finish(
    lp: LinearProgram,
    sf: _StandardForm,
    asm: _Assembled,
    T: np.ndarray,
    basis: np.ndarray,
    warm: bool,
) -> LPResult:
    """Canonical solution extraction from the final basis.

    Values are recomputed as ``B⁻¹ b`` against the *original* standard-form
    matrix rather than read off the pivoted tableau, so cold and warm solves
    that reach the same optimal basis return bit-identical points — the
    property the branch-and-bound reuse-on/off equivalence tests assert.
    """
    m, ncols = asm.A.shape
    # Sort the basis first: two pivot paths ending at the same basic *set*
    # (in different row orders) then factorize the exact same matrix, so the
    # extracted point is bit-identical — the reuse-on/off equivalence hinge.
    canon = np.sort(basis)
    try:
        B = np.zeros((m, m))
        in_cols = canon < ncols
        B[:, in_cols] = asm.A[:, canon[in_cols]]
        art_rows = canon[~in_cols] - ncols
        B[art_rows, np.flatnonzero(~in_cols)] = 1.0
        xB = np.linalg.solve(B, asm.b)
    except np.linalg.LinAlgError:  # numerically singular: fall back to tableau
        canon, xB = basis, T[:m, -1]
    y_full = np.zeros(ncols + m)
    y_full[canon] = xB
    y = y_full[:ncols]
    x = sf.original_x(y[: sf.num_y])
    res = LPResult(Status.OPTIMAL, x, float(lp.c @ x) + lp.c0)
    res.basis = _capture_basis(basis, ncols, asm.signature)
    res.warm_started = warm
    return res


def _warm_solve(
    lp: LinearProgram,
    sf: _StandardForm,
    asm: _Assembled,
    prior: SimplexBasis,
) -> tuple[LPResult, int, int] | None:
    """Attempt a basis-reuse solve; None means the caller must cold-start."""
    if not basis_compatible(prior, asm.signature):
        return None
    m, ncols = asm.A.shape
    covered = len(prior.columns)
    if covered > m:
        return None
    extension = asm.slack_of_row[covered:]
    if (extension < 0).any():  # a trailing row has no slack (equality cut)
        return None
    basis = np.concatenate([np.asarray(prior.columns, dtype=int), extension])
    try:
        sol = np.linalg.solve(
            asm.A[:, basis], np.concatenate([asm.A, asm.b[:, None]], axis=1)
        )
    except np.linalg.LinAlgError:
        return None
    cost_full = np.zeros(ncols)
    cost_full[: sf.num_y] = sf.cost
    cb = cost_full[basis]
    T = np.empty((m + 1, ncols + 1))
    T[:m] = sol
    T[-1, :ncols] = cost_full - cb @ sol[:, :ncols]
    T[-1, -1] = -float(cb @ sol[:, -1])

    dual_pivots = 0
    if T[:m, -1].min() < -_FEAS_TOL:
        if T[-1, :ncols].min() < -_FEAS_TOL:
            return None  # neither primal nor dual feasible: cold start
        st, dual_pivots = _dual_phase(T, basis, ncols)
        if st is Status.ITERATION_LIMIT:
            return None
        if st is Status.INFEASIBLE:
            res = LPResult(Status.INFEASIBLE, None, math.inf, "dual simplex certificate")
            res.warm_started = True
            return res, dual_pivots, 0
    st, pivots = _phase(T, basis, ncols)
    if st is Status.ITERATION_LIMIT:
        return None
    if st is Status.UNBOUNDED:
        res = LPResult(Status.UNBOUNDED, None, -math.inf, "phase 2 unbounded")
        res.warm_started = True
        return res, dual_pivots, pivots
    return _finish(lp, sf, asm, T, basis, warm=True), dual_pivots, pivots


def _cold_solve(
    lp: LinearProgram, sf: _StandardForm, asm: _Assembled
) -> tuple[LPResult, int, int]:
    m, ncols = asm.A.shape
    width = ncols + m
    T = np.zeros((m + 1, width + 1))
    T[:m, :ncols] = asm.A
    T[np.arange(m), ncols + np.arange(m)] = 1.0
    T[:m, -1] = asm.b
    # Rows whose slack column survived the b>=0 flip with coefficient +1 start
    # with that slack basic — phase 1 then only has to clear the remainder
    # (equality rows and flipped inequalities) instead of all m artificials.
    slack = asm.slack_of_row
    usable = (slack >= 0) & (asm.A[np.arange(m), np.maximum(slack, 0)] == 1.0)
    basis = np.where(usable, np.maximum(slack, 0), ncols + np.arange(m))
    T[-1, ncols:width] = 1.0  # unused artificials keep cost 1: they never enter
    T[-1] -= T[:m][~usable].sum(axis=0)

    st1, p1 = _phase(T, basis, ncols)
    if st1 is Status.ITERATION_LIMIT:
        return LPResult(st1, None, math.inf, "phase-1 iteration limit"), p1, 0
    if st1 is not Status.OPTIMAL:
        return LPResult(Status.ERROR, None, math.inf, "phase 1 failed"), p1, 0
    if -T[-1, -1] > _FEAS_TOL:
        return LPResult(Status.INFEASIBLE, None, math.inf, "phase 1 positive"), p1, 0

    # Drive surviving artificials out (or leave them on redundant rows).
    for i in np.flatnonzero(basis >= ncols):
        r = np.abs(T[i, :ncols])
        j = int(np.argmax(r))
        if r[j] > _TOL:
            _pivot(T, basis, int(i), j)
    if (basis < ncols).all():  # drop artificial columns: phase 2 never enters them
        T = np.concatenate([T[:, :ncols], T[:, -1:]], axis=1)

    cost_full = np.zeros(T.shape[1] - 1)
    cost_full[: sf.num_y] = sf.cost
    T[-1, :-1] = cost_full
    T[-1, -1] = 0.0
    T[-1] -= cost_full[basis] @ T[:m]

    st2, p2 = _phase(T, basis, ncols)
    if st2 is Status.UNBOUNDED:
        return LPResult(st2, None, -math.inf, "phase 2 unbounded"), p1, p2
    if st2 is Status.ITERATION_LIMIT:
        return LPResult(st2, None, math.inf, "phase-2 iteration limit"), p1, p2
    return _finish(lp, sf, asm, T, basis, warm=False), p1, p2


def solve_lp_simplex(lp: LinearProgram, basis: SimplexBasis | None = None) -> LPResult:
    """Solve ``lp`` with the built-in vectorized two-phase simplex.

    ``basis`` optionally warm-starts from a prior solve's
    :attr:`LPResult.basis`; structural mismatches silently cold-start.  The
    result's ``warm_started`` flag reports whether reuse actually happened.
    """
    sf = _StandardForm(lp)
    asm = _assemble(lp, sf)
    if asm.A.shape[0] == 0:
        # Pure bound problem: minimize over the box; each y at 0 unless its
        # cost is negative, in which case the LP is unbounded above y.
        if np.any(sf.cost < -_TOL):
            return LPResult(Status.UNBOUNDED, None, -math.inf, "unbounded box LP")
        x = sf.original_x(np.zeros(sf.num_y))
        return LPResult(Status.OPTIMAL, x, float(lp.c @ x) + lp.c0)

    res = None
    p1 = p2 = pd = 0
    if basis is not None:
        warm = _warm_solve(lp, sf, asm, basis)
        if warm is not None:
            res, pd, p2 = warm
    if res is None:
        res, p1, p2 = _cold_solve(lp, sf, asm)
    telemetry.record_simplex(
        phase1=p1, phase2=p2, dual=pd, warm=res.warm_started,
        attempted=basis is not None,
    )
    return res
