"""Reference pure-Python two-phase primal simplex (per-row loops, Bland).

This is the original loop-based implementation, retained verbatim as a
**validation oracle** for the one LP engine: property-based tests solve
random LPs with HiGHS (:func:`repro.minlp.linprog.solve_lp`) and with this
module and assert they agree, and branch-and-bound over its relaxations
must reach HiGHS's MILP optima.  A regression in the HiGHS call or in the
row split shows up as a disagreement.

It is deliberately slow and simple (dense tableau, per-row Python loops,
pure Bland's rule); do not use it on a hot path.

Transformation to standard form ``min c·y  s.t.  Ay = b, y >= 0``:

1. shift variables with a finite lower bound (``x = lb + y``); mirror
   variables with only a finite upper bound (``x = ub − y``); split free
   variables (``x = y⁺ − y⁻``);
2. re-emit finite upper bounds of shifted variables as explicit ``<=`` rows;
3. split each two-sided row into ``<=`` / ``>=`` rows, add slack/surplus
   columns, flip rows until ``b >= 0``;
4. phase 1 minimizes the sum of artificials; phase 2 the true objective.
"""

from __future__ import annotations

import math

import numpy as np

from repro.minlp.linprog import LinearProgram, LPResult
from repro.minlp.solution import Status

_TOL = 1e-9


class _StandardForm:
    """Bookkeeping for the original-variable -> standard-form mapping."""

    def __init__(self, lp: LinearProgram) -> None:
        n = lp.num_vars
        # Per original variable: (kind, data) where kind in
        # {"shift": y-index & lb, "mirror": y-index & ub, "free": (+idx, -idx)}
        self.recipe: list[tuple[str, tuple]] = []
        cols: list[np.ndarray] = []  # column of each y in terms of original A
        cost: list[float] = []
        extra_rows: list[tuple[np.ndarray, float]] = []  # (row over y, rhs) for <= rows
        self.const_shift = lp.c0

        y_count = 0
        col_of_orig = []  # map original var -> list of (y index, sign, offset)
        for j in range(n):
            lb, ub = lp.var_lb[j], lp.var_ub[j]
            if math.isfinite(lb):
                self.recipe.append(("shift", (y_count, lb)))
                col_of_orig.append([(y_count, 1.0, lb)])
                cost.append(lp.c[j])
                self.const_shift += lp.c[j] * lb
                if math.isfinite(ub):
                    row = np.zeros(0)  # fill later once width known
                    extra_rows.append((np.array([y_count]), ub - lb))
                y_count += 1
            elif math.isfinite(ub):
                # x = ub - y, y >= 0
                self.recipe.append(("mirror", (y_count, ub)))
                col_of_orig.append([(y_count, -1.0, ub)])
                cost.append(-lp.c[j])
                self.const_shift += lp.c[j] * ub
                y_count += 1
            else:
                self.recipe.append(("free", (y_count, y_count + 1)))
                col_of_orig.append([(y_count, 1.0, 0.0), (y_count + 1, -1.0, 0.0)])
                cost.extend([lp.c[j], -lp.c[j]])
                y_count += 2

        self.num_y = y_count
        self.cost = np.array(cost)
        self.col_of_orig = col_of_orig
        self.upper_rows = extra_rows  # (array([y_idx]), rhs)

    def original_x(self, y: np.ndarray, lp: LinearProgram) -> np.ndarray:
        x = np.empty(lp.num_vars)
        for j, (kind, data) in enumerate(self.recipe):
            if kind == "shift":
                idx, lb = data
                x[j] = lb + y[idx]
            elif kind == "mirror":
                idx, ub = data
                x[j] = ub - y[idx]
            else:
                ip, im = data
                x[j] = y[ip] - y[im]
        return x

    def row_over_y(self, row: np.ndarray) -> tuple[np.ndarray, float]:
        """Express ``row · x`` as ``r · y + const``."""
        r = np.zeros(self.num_y)
        const = 0.0
        for j, terms in enumerate(self.col_of_orig):
            if row[j] == 0.0:
                continue
            for idx, sign, offset in terms:
                r[idx] += row[j] * sign
            const += row[j] * (terms[0][2] if len(terms) == 1 else 0.0)
        return r, const


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _simplex_phase(
    T: np.ndarray, basis: list[int], ncols: int, max_iter: int
) -> Status:
    """Run simplex iterations on tableau ``T`` (last row = objective).

    Columns ``0..ncols-1`` are eligible to enter; Bland's rule prevents
    cycling.  Returns OPTIMAL, UNBOUNDED, or ITERATION_LIMIT.
    """
    m = T.shape[0] - 1
    for _ in range(max_iter):
        obj = T[-1, :ncols]
        entering = -1
        for j in range(ncols):  # Bland: smallest index with negative reduced cost
            if obj[j] < -_TOL:
                entering = j
                break
        if entering < 0:
            return Status.OPTIMAL
        # Ratio test (Bland: smallest basis index breaks ties).
        best_ratio = math.inf
        leaving = -1
        for i in range(m):
            a = T[i, entering]
            if a > _TOL:
                ratio = T[i, -1] / a
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return Status.UNBOUNDED
        _pivot(T, basis, leaving, entering)
    return Status.ITERATION_LIMIT


def solve_lp_simplex_reference(lp: LinearProgram, max_iter: int = 20000) -> LPResult:
    """Solve ``lp`` with the loop-based reference two-phase simplex."""
    sf = _StandardForm(lp)

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    senses: list[str] = []  # "le", "ge", "eq" over y

    for i in range(lp.num_rows):
        r, const = sf.row_over_y(lp.A[i])
        lo = lp.row_lb[i] - const
        hi = lp.row_ub[i] - const
        if lo == hi:
            rows.append(r)
            rhs.append(lo)
            senses.append("eq")
            continue
        if math.isfinite(hi):
            rows.append(r)
            rhs.append(hi)
            senses.append("le")
        if math.isfinite(lo):
            rows.append(r)
            rhs.append(lo)
            senses.append("ge")
    for idx_arr, ub in sf.upper_rows:
        r = np.zeros(sf.num_y)
        r[idx_arr[0]] = 1.0
        rows.append(r)
        rhs.append(ub)
        senses.append("le")

    m = len(rows)
    n = sf.num_y
    if m == 0:
        # Pure bound problem: minimize over the box; each y at 0 unless its
        # cost is negative, in which case the LP is unbounded above y.
        if np.any(sf.cost < -_TOL):
            return LPResult(Status.UNBOUNDED, None, -math.inf, "unbounded box LP")
        y = np.zeros(n)
        x = sf.original_x(y, lp)
        return LPResult(Status.OPTIMAL, x, float(lp.c @ x) + lp.c0)

    # Assemble [A | slacks | artificials | rhs]; count slack columns first.
    num_slack = sum(1 for s in senses if s != "eq")
    width = n + num_slack + m  # artificials on every row keeps phase 1 trivial
    A = np.zeros((m, width))
    b = np.array(rhs, dtype=float)
    slack_j = n
    for i, (row, sense) in enumerate(zip(rows, senses)):
        A[i, :n] = row
        if sense == "le":
            A[i, slack_j] = 1.0
            slack_j += 1
        elif sense == "ge":
            A[i, slack_j] = -1.0
            slack_j += 1
    # Make rhs nonnegative, then install artificial identity columns.
    for i in range(m):
        if b[i] < 0.0:
            A[i] *= -1.0
            b[i] *= -1.0
    art0 = n + num_slack
    for i in range(m):
        A[i, art0 + i] = 1.0

    # Phase 1 tableau.
    T = np.zeros((m + 1, width + 1))
    T[:m, :width] = A
    T[:m, -1] = b
    T[-1, art0 : art0 + m] = 1.0
    basis = [art0 + i for i in range(m)]
    for i in range(m):  # price out artificials from the phase-1 objective row
        T[-1] -= T[i]
    status = _simplex_phase(T, basis, ncols=art0, max_iter=max_iter)
    if status is Status.ITERATION_LIMIT:
        return LPResult(status, None, math.inf, "phase-1 iteration limit")
    if -T[-1, -1] > 1e-7:
        return LPResult(Status.INFEASIBLE, None, math.inf, "phase 1 positive")

    # Drive any artificial still in the basis out (or drop its row if zero).
    for i in range(m):
        if basis[i] >= art0:
            pivot_col = -1
            for j in range(art0):
                if abs(T[i, j]) > _TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(T, basis, i, pivot_col)
            # else: redundant row; leave the artificial at value 0.

    # Phase 2: replace objective row.
    T[-1, :] = 0.0
    T[-1, :n] = sf.cost
    for i in range(m):
        j = basis[i]
        if j < art0 and abs(T[-1, j]) > 0.0:
            T[-1] -= T[-1, j] * T[i]
    status = _simplex_phase(T, basis, ncols=art0, max_iter=max_iter)
    if status is Status.UNBOUNDED:
        return LPResult(Status.UNBOUNDED, None, -math.inf, "phase 2 unbounded")
    if status is Status.ITERATION_LIMIT:
        return LPResult(status, None, math.inf, "phase-2 iteration limit")

    y = np.zeros(width)
    for i in range(m):
        y[basis[i]] = T[i, -1]
    x = sf.original_x(y[:n], lp)
    return LPResult(Status.OPTIMAL, x, float(lp.c @ x) + lp.c0)
