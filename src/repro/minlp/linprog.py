"""Linear-programming layer.

Canonical LP container plus its one engine: HiGHS (standing in for the CLP
solver MINOTAUR uses for its LP relaxations), called through scipy's binding
of its core.  Every LP in :mod:`repro.minlp` goes through :func:`_run_highs`.

The HiGHS call is ``linprog(method="highs", options={"presolve": False})``
without the wrapper: the same model (linprog's row order, its CSC matrix,
its options) goes to a ``scipy.optimize._highspy._core._Highs``, and the
answer is read by linprog's rules (its status table, built once here, and
its feasibility check of an optimum), so every solve returns what
``linprog`` would, bit for bit (``tests/minlp/test_highs_direct.py``
replays both).  Presolve is off because every LP here is small: at a few
hundred columns or fewer it costs more than the dual simplex it shortens.
A branch-and-bound tree keeps one instance (:class:`_HighsEngine`) for all
its node LPs: a node whose rows did not change only resets the column
bounds on a cleared solver, so no basis, no options and no model object are
rebuilt per node.  :meth:`_HighsEngine.solve` passes any LP whole to a kept
instance (OA's fixed-integer subproblems); :func:`solve_lp` runs on an
instance of its own.

:class:`IncrementalLPSolver` is the LP path at branch-and-bound nodes: it
caches the row model across nodes and polishes each optimum toward
integrality, which keeps the trees small (DESIGN.md "Solver hot path").

LPs here are stated over **row ranges**: minimize ``c·x + c0`` subject to
``row_lb <= A x <= row_ub`` and ``var_lb <= x <= var_ub``.  That matches how
:meth:`Problem.linear_matrix_form` extracts models and avoids duplicating
rows for two-sided constraints.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.minlp.problem import Problem
from repro.minlp.solution import Solution, SolveStats, Status


@dataclass
class LinearProgram:
    """Dense LP in range form: min ``c·x + c0`` s.t. ``row_lb<=Ax<=row_ub``."""

    c: np.ndarray
    A: np.ndarray
    row_lb: np.ndarray
    row_ub: np.ndarray
    var_lb: np.ndarray
    var_ub: np.ndarray
    c0: float = 0.0
    names: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.row_lb = np.asarray(self.row_lb, dtype=float)
        self.row_ub = np.asarray(self.row_ub, dtype=float)
        self.var_lb = np.asarray(self.var_lb, dtype=float)
        self.var_ub = np.asarray(self.var_ub, dtype=float)
        n = self.c.size
        if self.A.size == 0:
            self.A = self.A.reshape(0, n)
        m = self.A.shape[0]
        if self.A.shape[1] != n:
            raise ValueError(f"A has {self.A.shape[1]} columns, expected {n}")
        for arr, size, what in (
            (self.row_lb, m, "row_lb"),
            (self.row_ub, m, "row_ub"),
            (self.var_lb, n, "var_lb"),
            (self.var_ub, n, "var_ub"),
        ):
            if arr.size != size:
                raise ValueError(f"{what} has size {arr.size}, expected {size}")
        if not self.names:
            self.names = tuple(f"x{j}" for j in range(n))
        if np.any(self.row_lb > self.row_ub) or np.any(self.var_lb > self.var_ub):
            raise ValueError("crossed bounds in LP")

    @property
    def num_vars(self) -> int:
        return int(self.c.size)

    @classmethod
    def from_problem(cls, problem: Problem) -> "LinearProgram":
        """Build from a fully-linear :class:`Problem` (ignoring integrality)."""
        c, c0, A, row_lb, row_ub, var_lb, var_ub = problem.linear_matrix_form()
        sign = 1.0
        if problem.sense.value == "maximize":
            sign = -1.0
        return cls(
            c=sign * c,
            A=A,
            row_lb=row_lb,
            row_ub=row_ub,
            var_lb=var_lb,
            var_ub=var_ub,
            c0=sign * c0,
            names=problem.variable_names,
        )


@dataclass
class LPResult:
    """Outcome of one LP solve."""

    status: Status
    x: np.ndarray | None
    objective: float
    message: str = ""

    def values(self, lp: LinearProgram) -> dict[str, float]:
        if self.x is None:
            raise RuntimeError("LP has no solution point")
        return {n: float(v) for n, v in zip(lp.names, self.x)}


_SCIPY_STATUS = {
    0: Status.OPTIMAL,
    1: Status.ITERATION_LIMIT,
    2: Status.INFEASIBLE,
    3: Status.UNBOUNDED,
    4: Status.ERROR,
}

#: linprog's ``_highs_to_scipy_status_message`` table, built once: by
#: ``HighsModelStatus`` value, linprog's status code and the text its message
#: starts with.
_HIGHS_STATUS = {
    0: (4, ""),  # kNotset
    1: (4, ""),  # kLoadError
    2: (2, ""),  # kModelError
    3: (4, ""),  # kPresolveError
    4: (4, ""),  # kSolveError
    5: (4, ""),  # kPostsolveError
    6: (4, ""),  # kModelEmpty
    7: (0, "Optimization terminated successfully. "),  # kOptimal
    8: (2, "The problem is infeasible. "),  # kInfeasible
    9: (4, "The problem is unbounded or infeasible. "),  # kUnboundedOrInfeasible
    10: (3, "The problem is unbounded. "),  # kUnbounded
    11: (4, ""),  # kObjectiveBound
    12: (4, ""),  # kObjectiveTarget
    13: (1, "Time limit reached. "),  # kTimeLimit
    14: (1, "Iteration limit reached. "),  # kIterationLimit
}
_HIGHS_STATUS_UNRECOGNIZED = (4, "The HiGHS status code was not recognized. ")

#: linprog's ``_check_result`` tolerance: ``10*sqrt(tol)`` of its ``tol=1e-9``.
_CHECK_TOL = math.sqrt(1e-9) * 10
_NO_SOLUTION = (
    "The solver did not provide a solution nor did it report a failure. "
    "Please submit a bug report."
)
_INFEASIBLE_OPTIMUM = (
    "The solution does not satisfy the constraints within the required "
    f"tolerance of {_CHECK_TOL:.2E}, yet no errors were raised and there is "
    "no certificate of infeasibility or unboundedness. Check whether the "
    "slack and constraint residuals are acceptable; if not, consider "
    "enabling presolve, adjusting the tolerance option(s), and/or using a "
    "different method. Please consider submitting a bug report."
)


def _split_rows(
    A: np.ndarray, row_lb: np.ndarray, row_ub: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Vectorized range-row split into linprog's ``(A_ub, b_ub, A_eq, b_eq)``.

    Two-sided rows are split into <=/>= pairs only where needed; equality
    rows go through ``A_eq`` directly.  The <=/>= pair of a two-sided row
    stays adjacent (source order, <= first): row order steers which of
    several degenerate optima HiGHS reports, so it must stay stable across
    refactorings for solves to remain bit-reproducible.
    """
    eq = row_lb == row_ub
    le = ~eq & np.isfinite(row_ub)
    ge = ~eq & np.isfinite(row_lb)
    A_ub = b_ub = A_eq = b_eq = None
    if le.any() or ge.any():
        src = np.concatenate([np.flatnonzero(le), np.flatnonzero(ge)])
        kind = np.concatenate([np.zeros(int(le.sum()), int), np.ones(int(ge.sum()), int)])
        order = np.lexsort((kind, src))
        src, kind = src[order], kind[order]
        sign = np.where(kind == 0, 1.0, -1.0)
        A_ub = A[src] * sign[:, None]
        b_ub = np.where(kind == 0, row_ub[src], -row_lb[src])
    if eq.any():
        A_eq = A[eq]
        b_eq = row_lb[eq]
    return A_ub, b_ub, A_eq, b_eq


@dataclass(frozen=True)
class _HighsRows:
    """The row side of the model ``linprog`` hands HiGHS: ``A_ub`` rows then
    ``A_eq`` rows as one CSC matrix, ``-inf <= A_ub x <= b_ub`` and
    ``b_eq <= A_eq x <= b_eq``."""

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    num_ub: int

    @classmethod
    def from_split(cls, split: tuple, num_cols: int) -> "_HighsRows":
        A_ub, b_ub, A_eq, b_eq = split
        empty_rows, empty_rhs = np.zeros((0, num_cols)), np.zeros(0)
        A_ub = empty_rows if A_ub is None else A_ub
        b_ub = empty_rhs if b_ub is None else b_ub
        A_eq = empty_rows if A_eq is None else A_eq
        b_eq = empty_rhs if b_eq is None else b_eq
        A = np.vstack((A_ub, A_eq))
        # Column-major nonzeros, rows ascending inside a column: the arrays
        # scipy.sparse.csc_array(A) holds (explicit zeros, -0.0 too, dropped).
        cols, rows = np.nonzero(A.T)
        start = np.zeros(num_cols + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=num_cols), out=start[1:])
        return cls(
            start=start,
            index=rows.astype(np.int32),
            value=A[rows, cols],
            lower=np.concatenate((np.full(b_ub.size, -np.inf), b_eq)),
            upper=np.concatenate((b_ub, b_eq)),
            num_ub=int(b_ub.size),
        )


@functools.cache
def _highs_options():
    """The options ``linprog(method="highs", options={"presolve": False})``
    passes (``None``-valued ones it skips); read-only once built.

    Presolve is off for every LP: the program's LPs have at most a few
    hundred columns, and on them HiGHS's presolve costs more than the dual
    simplex it would shorten (DESIGN.md, *The HiGHS call*).
    """
    import scipy.optimize._highspy._core as core

    options = core.HighsOptions()
    options.presolve = "off"
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


def _highs_lp(c: np.ndarray, rows: _HighsRows, var_lb: np.ndarray, var_ub: np.ndarray):
    """The ``HighsLp`` ``linprog`` builds for this model."""
    import scipy.optimize._highspy._core as core

    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = c.size
    model.num_row_ = model.a_matrix_.num_row_ = rows.upper.size
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = rows.start
    model.a_matrix_.index_ = rows.index
    model.a_matrix_.value_ = rows.value
    model.col_cost_ = c
    model.col_lower_ = var_lb
    model.col_upper_ = var_ub
    model.row_lower_ = rows.lower
    model.row_upper_ = rows.upper
    return model


class _HighsEngine:
    """One HiGHS instance with linprog's options, for one cost vector.

    :meth:`load` hands it a model before each solve: the whole model when
    the instance holds other rows (or none), else only the column bounds, on
    a solver cleared first.  The cost goes in with the whole model only, so
    a caller keeps ``c`` fixed for the engine's life.  ``clearSolver`` drops
    the basis, the solution and the presolved model, so every solve starts
    cold — a reused basis lands on other vertices of degenerate faces than
    ``linprog`` does, and a cleared instance answers what a fresh one does,
    bit for bit.
    """

    __slots__ = ("highs", "rows", "_cols")

    def __init__(self) -> None:
        # Imported at the call site (a sys.modules lookup after the first): a
        # served request solves no LP, so a serving process never loads scipy.
        import scipy.optimize._highspy._core as core

        self.highs = core._Highs()
        if self.highs.passOptions(_highs_options()) == core.HighsStatus.kError:
            raise RuntimeError("HiGHS refused linprog's options")
        #: The row model the instance holds; ``None`` until one loaded.
        self.rows: _HighsRows | None = None
        self._cols = np.zeros(0, dtype=np.int32)

    def load(
        self,
        c: np.ndarray,
        rows: _HighsRows,
        var_lb: np.ndarray,
        var_ub: np.ndarray,
    ) -> bool:
        """Make the instance hold ``c``, ``rows`` and these bounds; ``False``
        when HiGHS refuses them (and the next load passes the whole model)."""
        import scipy.optimize._highspy._core as core

        highs = self.highs
        if rows is self.rows:
            highs.clearSolver()
            status = highs.changeColsBounds(c.size, self._cols, var_lb, var_ub)
        else:
            status = highs.passModel(_highs_lp(c, rows, var_lb, var_ub))
            self._cols = np.arange(c.size, dtype=np.int32)
        self.rows = None if status == core.HighsStatus.kError else rows
        return self.rows is not None

    def solve(self, lp: LinearProgram) -> LPResult:
        """Solve ``lp`` here, its model passed whole: what a fresh instance
        answers (:func:`solve_lp`), without building one per LP."""
        rows = _HighsRows.from_split(
            _split_rows(lp.A, lp.row_lb, lp.row_ub), lp.num_vars
        )
        return _run_highs(self, lp.c, lp.c0, rows, lp.var_lb, lp.var_ub)


def _feasible(
    x: np.ndarray,
    fun: float,
    residual: np.ndarray,
    num_ub: int,
    var_lb: np.ndarray,
    var_ub: np.ndarray,
) -> bool:
    """``_check_result``'s test of an optimum: ``x`` inside its bounds, no
    ``A_ub`` row over and no ``A_eq`` row off, all within :data:`_CHECK_TOL`,
    and no NaN anywhere (a NaN fails every comparison below, so only ``fun``
    needs its own test); ``residual`` is ``upper - A x`` per row."""
    tol = _CHECK_TOL
    return bool(
        not math.isnan(fun)
        and (x >= var_lb - tol).all()
        and (x <= var_ub + tol).all()
        and (residual[:num_ub] >= -tol).all()
        and (np.abs(residual[num_ub:]) <= tol).all()
    )


def _run_highs(
    engine: _HighsEngine,
    c: np.ndarray,
    c0: float,
    rows: _HighsRows,
    var_lb: np.ndarray,
    var_ub: np.ndarray,
) -> LPResult:
    """One solve on ``engine`` (:meth:`_HighsEngine.load`, then ``run``).

    The answer is read the way ``linprog`` reads it — its status table and
    message, its feasibility check of an optimum — without its per-call
    helpers; no duals are read.
    """
    import scipy.optimize._highspy._core as core

    highs = engine.highs
    x = None
    if not engine.load(c, rows, var_lb, var_ub):
        status = core.HighsModelStatus.kModelError
        message = highs.modelStatusToString(status)
    elif highs.run() == core.HighsStatus.kError:
        status = highs.getModelStatus()
        message = highs.modelStatusToString(status)
    else:
        status = highs.getModelStatus()
        if status == core.HighsModelStatus.kOptimal:
            message = highs.modelStatusToString(status)
            solution = highs.getSolution()
            x = np.array(solution.col_value)
            fun = highs.getObjectiveValue()  # info's objective_function_value
            residual = rows.upper - solution.row_value
        else:
            primal = highs.getInfo().primal_solution_status
            message = (
                f"model_status is {highs.modelStatusToString(status)}; "
                f"primal_status is {highs.solutionStatusToString(primal)}"
            )
    code, text = _HIGHS_STATUS.get(int(status), _HIGHS_STATUS_UNRECOGNIZED)
    message = f"{text}(HiGHS Status {int(status)}: {message})"
    if x is not None:
        if _feasible(x, fun, residual, rows.num_ub, var_lb, var_ub):
            return LPResult(Status.OPTIMAL, x, float(fun) + c0, message)
        code, message = 4, _INFEASIBLE_OPTIMUM
    elif code == 0:
        code, message = 4, _NO_SOLUTION
    return LPResult(_SCIPY_STATUS[code], None, math.inf, message)


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve ``lp`` with HiGHS; the answer ``linprog(method="highs")`` gives."""
    return _HighsEngine().solve(lp)


#: HiGHS's ``small_matrix_value``: it drops matrix entries no larger than
#: this, and then solves a different LP than the one it was handed.
_HIGHS_SMALL_ENTRY = 1e-9


def fold_small_entries(
    A: np.ndarray,
    row_lb: np.ndarray,
    row_ub: np.ndarray,
    var_lb: np.ndarray,
    var_ub: np.ndarray,
) -> None:
    """Move the entries HiGHS would drop into their row ranges, in place.

    An entry ``a`` on a column boxed in ``[l, u]`` adds ``a*x`` in
    ``[min(a*l, a*u), max(a*l, a*u)]`` to its row.  Zeroing it and widening
    the row range by that interval keeps every point of the stated row
    feasible: the row is relaxed by at most ``|a|*(u - l)``, where dropping
    the entry outright can cut a feasible point off.  An OA tangent taken at
    a curve's sweet spot has such a slope (``eighth-32768``'s ice row,
    -9.5e-11).  Entries on unbounded columns stay.
    """
    small = (A != 0.0) & (np.abs(A) <= _HIGHS_SMALL_ENTRY)
    small &= np.isfinite(var_lb) & np.isfinite(var_ub)
    rows, cols = np.nonzero(small)
    if rows.size:
        a = A[rows, cols]
        ends = np.stack([a * var_lb[cols], a * var_ub[cols]])
        np.subtract.at(row_lb, rows, ends.max(axis=0))
        np.subtract.at(row_ub, rows, ends.min(axis=0))
        A[rows, cols] = 0.0


#: A discrete value further than this from an integer is a polish candidate.
_POLISH_INT_TOL = 1e-9
#: A polished point may sit this far outside a row range — the engine's own
#: primal feasibility tolerance — or as far out as the engine's point was.
_POLISH_ROW_TOL = 1e-7


def polish_columns(
    discrete: np.ndarray,
    c: np.ndarray,
    A: np.ndarray,
    row_lb: np.ndarray,
    row_ub: np.ndarray,
) -> np.ndarray:
    """Discrete columns a lone integrality move can ever be valid for.

    Moving one variable changes the objective unless its cost is zero, and
    breaks an equality row it appears in (nothing else moves to compensate),
    so both kinds are dropped once per matrix instead of once per solve —
    SOS1 selection variables tied by ``sum z = 1`` cost the polish nothing.
    """
    in_equality = (A[row_lb == row_ub] != 0.0).any(axis=0)
    return np.flatnonzero(discrete & (c == 0.0) & ~in_equality)


def _fractional(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The subset of ``cols`` whose value in ``x`` is not integral."""
    vals = x[cols]
    return cols[np.abs(vals - np.rint(vals)) > _POLISH_INT_TOL]


def polish_integrality(
    x: np.ndarray,
    cols: np.ndarray,
    A: np.ndarray,
    row_lb: np.ndarray,
    row_ub: np.ndarray,
    var_lb: np.ndarray,
    var_ub: np.ndarray,
) -> int:
    """Snap fractional ``x[cols]`` to integers in place; returns how many.

    ``x`` is an optimal point of the LP and ``cols`` come from
    :func:`polish_columns`.  Each candidate moves to its floor, else its
    ceiling, when the moved point stays inside the variable bounds and every
    row range; the objective cannot change (zero-cost columns), so the result
    is another optimum of the same LP — no longer a vertex, which
    branch-and-bound never needed: the bound is the LP value, a dichotomy on
    any fractional coordinate of any feasible point is valid, and an integral
    optimum of the relaxation is an integer-feasible point worth that bound.
    Degenerate allocation LPs have whole faces of optima, and the vertex
    HiGHS reports is often fractional where an integral optimum exists;
    pulling it toward an integral corner roughly halves the ledger's trees.

    Passes repeat until no candidate can move (a move can free room for an
    earlier candidate), so polishing a polished point changes nothing.
    """
    frac = _fractional(x, cols)
    if frac.size == 0:
        return 0
    Ax = A @ x
    lo = np.minimum(row_lb - _POLISH_ROW_TOL, Ax)
    hi = np.maximum(row_ub + _POLISH_ROW_TOL, Ax)
    snapped = 0
    while frac.size:
        # Every remaining candidate's floor and ceiling move against every
        # row at once; only moves valid on their own are walked in Python.
        cand = np.repeat(frac, 2)
        target = np.stack([np.floor(x[frac]), np.ceil(x[frac])], axis=1).ravel()
        moved = Ax[:, None] + A[:, cand] * (target - x[cand])
        ok = (
            (target >= var_lb[cand])
            & (target <= var_ub[cand])
            & (moved >= lo[:, None]).all(axis=0)
            & (moved <= hi[:, None]).all(axis=0)
        )
        before, last = snapped, -1
        for i in np.flatnonzero(ok):
            j = cand[i]
            if j == last:  # its floor move was just taken
                continue
            new = Ax + A[:, j] * (target[i] - x[j])  # Ax moves within a pass
            if (new < lo).any() or (new > hi).any():
                continue
            Ax, x[j], last = new, target[i], j
            snapped += 1
        if snapped == before:
            break
        frac = _fractional(x, frac)
    return snapped


class IncrementalLPSolver:
    """LP relaxation engine with a cached matrix form.

    Branch-and-bound solves thousands of LPs that differ from the root only
    in variable bounds and appended cut rows.  Rebuilding the symbolic
    problem and re-extracting coefficients per node dominates runtime on
    models like the paper's 1-degree ocean set (241 selection binaries); this
    class extracts the matrix once, consolidates appended cut rows lazily,
    and caches the HiGHS row model (linprog's eq/ub split, as one CSC
    matrix) so a node re-solve touches no Python-level row loop at all.
    One HiGHS instance (:class:`_HighsEngine`) answers every node LP of the
    solver's life — one tree: the model is passed again only after a cut
    row was appended, otherwise the node's bounds go to a cleared solver.
    Entries HiGHS would drop are folded into their rows first
    (:func:`fold_small_entries`), and each optimum is polished toward
    integrality (:func:`polish_integrality`).
    """

    def __init__(self, problem: Problem) -> None:
        if not problem.is_linear():
            raise ValueError(f"{problem.name!r} has nonlinear pieces")
        self._sign = -1.0 if problem.sense.value == "maximize" else 1.0
        c, c0, A, row_lb, row_ub, var_lb, var_ub = problem.linear_matrix_form()
        self._c = self._sign * c
        self._c0 = self._sign * c0
        self._blocks: list[np.ndarray] = [np.atleast_2d(A)] if A.size else []
        self._lb_blocks: list[np.ndarray] = [np.asarray(row_lb, dtype=float)]
        self._ub_blocks: list[np.ndarray] = [np.asarray(row_ub, dtype=float)]
        self._base_lb = var_lb
        self._base_ub = var_ub
        self._names = problem.variable_names
        self._col = {n: j for j, n in enumerate(self._names)}
        self._discrete = np.zeros(len(self._names), dtype=bool)
        self._discrete[[self._col[v.name] for v in problem.discrete_variables()]] = True
        self._matrix_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._polish_cols: np.ndarray | None = None
        self._rows_cache: _HighsRows | None = None
        self._engine = _HighsEngine()
        #: Variables snapped by the polish, for the solve's trace span.
        self.polish_snapped = 0

    def add_row(self, body, lb: float, ub: float) -> None:
        """Append a (linear) cut row, e.g. an outer-approximation cut."""
        coeffs, k = body.linear_coefficients()
        row = np.zeros(len(self._names))
        for name, v in coeffs.items():
            row[self._col[name]] = v
        self._blocks.append(row[None, :])
        self._lb_blocks.append(np.array([lb - k]))
        self._ub_blocks.append(np.array([ub - k]))
        self._matrix_cache = None
        self._rows_cache = None

    def _matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._matrix_cache is None:
            A = (
                np.vstack(self._blocks)
                if self._blocks
                else np.zeros((0, self._c.size))
            )
            row_lb = np.concatenate(self._lb_blocks)
            row_ub = np.concatenate(self._ub_blocks)
            fold_small_entries(A, row_lb, row_ub, self._base_lb, self._base_ub)
            self._blocks = [A] if A.size else []
            self._lb_blocks = [row_lb]
            self._ub_blocks = [row_ub]
            self._matrix_cache = (A, row_lb, row_ub)
            self._polish_cols = polish_columns(
                self._discrete, self._c, A, row_lb, row_ub
            )
        return self._matrix_cache

    def _highs_rows(self) -> _HighsRows:
        if self._rows_cache is None:
            A, row_lb, row_ub = self._matrix()
            self._rows_cache = _HighsRows.from_split(
                _split_rows(A, row_lb, row_ub), self._c.size
            )
        return self._rows_cache

    def solve(self, bounds: Mapping[str, tuple[float, float]]) -> Solution:
        """Solve with per-variable bound overrides (intersected with base)."""
        var_lb = self._base_lb.copy()
        var_ub = self._base_ub.copy()
        for name, (lo, hi) in bounds.items():
            j = self._col[name]
            var_lb[j] = max(var_lb[j], lo)
            var_ub[j] = min(var_ub[j], hi)
            if var_lb[j] > var_ub[j]:
                return Solution(
                    Status.INFEASIBLE,
                    stats=SolveStats(),
                    message=f"crossed bounds on {name}",
                )
        stats = SolveStats(lp_solves=1)
        res = _run_highs(
            self._engine, self._c, self._c0, self._highs_rows(), var_lb, var_ub
        )
        if res.status is not Status.OPTIMAL:
            return Solution(res.status, stats=stats, message=res.message)
        A, row_lb, row_ub = self._matrix()
        self.polish_snapped += polish_integrality(
            res.x, self._polish_cols, A, row_lb, row_ub, var_lb, var_ub
        )
        values = {n: float(v) for n, v in zip(self._names, res.x)}
        obj = self._sign * res.objective
        return Solution(
            Status.OPTIMAL, values=values, objective=obj, bound=obj, stats=stats
        )

