"""Flat MINLP problem representation consumed by the solvers.

A :class:`Problem` is the solver-facing form of a model: an ordered set of
variables with bounds and domains, a list of (possibly nonlinear) constraints
``lb <= g(x) <= ub``, an objective, and SOS1 sets.  It is deliberately dumb —
all algebra lives in :mod:`repro.minlp.expr`, all convenience in
:mod:`repro.minlp.modeling`.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.minlp.expr import Expr, as_expr


class Domain(enum.Enum):
    """Variable domain classification."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Sense(enum.Enum):
    """Optimization direction."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class Variable:
    """A decision variable: name, bounds, and domain."""

    name: str
    lb: float = -math.inf
    ub: float = math.inf
    domain: Domain = Domain.CONTINUOUS

    def __post_init__(self) -> None:
        if self.lb > self.ub:
            raise ValueError(f"variable {self.name}: lb {self.lb} > ub {self.ub}")
        if self.domain is Domain.BINARY and (self.lb < 0.0 or self.ub > 1.0):
            raise ValueError(f"binary variable {self.name} must have bounds in [0,1]")

    @property
    def is_discrete(self) -> bool:
        return self.domain in (Domain.INTEGER, Domain.BINARY)


@dataclass(frozen=True)
class Constraint:
    """A constraint ``lb <= body <= ub`` on an expression body."""

    name: str
    body: Expr
    lb: float = -math.inf
    ub: float = math.inf

    def __post_init__(self) -> None:
        if self.lb > self.ub:
            raise ValueError(f"constraint {self.name}: lb {self.lb} > ub {self.ub}")
        if math.isinf(self.lb) and math.isinf(self.ub):
            raise ValueError(f"constraint {self.name} is unbounded on both sides")

    @property
    def is_equality(self) -> bool:
        return self.lb == self.ub

    def is_linear(self) -> bool:
        return self.body.is_linear()

    def violation(self, values: Mapping[str, float]) -> float:
        """Amount by which ``values`` violates this constraint (0 if satisfied)."""
        g = float(self.body.evaluate(values))
        return max(0.0, self.lb - g, g - self.ub)


@dataclass(frozen=True)
class SOS1:
    """A special-ordered set of type 1: at most one member may be nonzero.

    The paper models the discrete atmosphere/ocean node-count choices as SOS1
    sets over selection binaries (Table I, lines 29–31) and reports that
    branching on the set rather than on individual binaries speeds the solver
    by two orders of magnitude.
    """

    name: str
    members: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.members) != len(self.weights):
            raise ValueError(f"SOS1 {self.name}: members/weights length mismatch")
        if len(self.members) < 2:
            raise ValueError(f"SOS1 {self.name}: needs at least two members")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"SOS1 {self.name}: duplicate members")
        if list(self.weights) != sorted(self.weights):
            raise ValueError(f"SOS1 {self.name}: weights must be nondecreasing")


class Problem:
    """An ordered MINLP: variables, constraints, SOS1 sets, objective."""

    def __init__(self, name: str = "problem") -> None:
        self.name = name
        self._variables: dict[str, Variable] = {}
        self._constraints: dict[str, Constraint] = {}
        self._sos1: dict[str, SOS1] = {}
        self.objective: Expr = as_expr(0.0)
        self.sense: Sense = Sense.MINIMIZE

    # -- construction ----------------------------------------------------

    def add_variable(
        self,
        name: str,
        lb: float = -math.inf,
        ub: float = math.inf,
        domain: Domain = Domain.CONTINUOUS,
    ) -> Variable:
        if name in self._variables:
            raise ValueError(f"duplicate variable {name!r}")
        var = Variable(name, float(lb), float(ub), domain)
        self._variables[name] = var
        return var

    def add_constraint(
        self,
        name: str,
        body: Expr,
        lb: float = -math.inf,
        ub: float = math.inf,
    ) -> Constraint:
        if name in self._constraints:
            raise ValueError(f"duplicate constraint {name!r}")
        unknown = body.variables() - self._variables.keys()
        if unknown:
            raise ValueError(f"constraint {name!r} uses undeclared variables {sorted(unknown)}")
        con = Constraint(name, body, float(lb), float(ub))
        self._constraints[name] = con
        return con

    def add_sos1(self, name: str, members: Sequence[str], weights: Sequence[float]) -> SOS1:
        unknown = set(members) - self._variables.keys()
        if unknown:
            raise ValueError(f"SOS1 {name!r} uses undeclared variables {sorted(unknown)}")
        if name in self._sos1:
            raise ValueError(f"duplicate SOS1 {name!r}")
        sos = SOS1(name, tuple(members), tuple(float(w) for w in weights))
        self._sos1[name] = sos
        return sos

    def set_objective(self, expr: Expr, sense: Sense = Sense.MINIMIZE) -> None:
        unknown = expr.variables() - self._variables.keys()
        if unknown:
            raise ValueError(f"objective uses undeclared variables {sorted(unknown)}")
        self.objective = expr
        self.sense = sense

    # -- views -------------------------------------------------------------

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._variables.values())

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints.values())

    @property
    def sos1_sets(self) -> tuple[SOS1, ...]:
        return tuple(self._sos1.values())

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(self._variables)

    def variable(self, name: str) -> Variable:
        return self._variables[name]

    def constraint(self, name: str) -> Constraint:
        return self._constraints[name]

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def discrete_variables(self) -> tuple[Variable, ...]:
        return tuple(v for v in self._variables.values() if v.is_discrete)

    def is_mip(self) -> bool:
        return bool(self.discrete_variables()) or bool(self._sos1)

    def is_linear(self) -> bool:
        return self.objective.is_linear() and all(
            c.is_linear() for c in self._constraints.values()
        )

    def nonlinear_constraints(self) -> tuple[Constraint, ...]:
        return tuple(c for c in self._constraints.values() if not c.is_linear())

    # -- point queries -------------------------------------------------------

    def objective_value(self, values: Mapping[str, float]) -> float:
        return float(self.objective.evaluate(values))

    def max_violation(self, values: Mapping[str, float]) -> float:
        """Largest constraint/bound/integrality violation at ``values``."""
        worst = 0.0
        for con in self._constraints.values():
            worst = max(worst, con.violation(values))
        for var in self._variables.values():
            x = float(values[var.name])
            worst = max(worst, var.lb - x, x - var.ub)
            if var.is_discrete:
                worst = max(worst, abs(x - round(x)))
        for sos in self._sos1.values():
            nonzero = [m for m in sos.members if abs(float(values[m])) > 1e-9]
            if len(nonzero) > 1:
                worst = max(
                    worst, sorted(abs(float(values[m])) for m in nonzero)[-2]
                )
        return worst

    def is_feasible(self, values: Mapping[str, float], tol: float = 1e-6) -> bool:
        return self.max_violation(values) <= tol

    # -- transforms -------------------------------------------------------

    def relaxed(self) -> "Problem":
        """Return a copy with all integrality and SOS1 requirements dropped."""
        out = Problem(f"{self.name}:relaxed")
        for v in self._variables.values():
            out.add_variable(v.name, v.lb, v.ub, Domain.CONTINUOUS)
        for c in self._constraints.values():
            out.add_constraint(c.name, c.body, c.lb, c.ub)
        out.set_objective(self.objective, self.sense)
        return out

    def with_bounds(self, bounds: Mapping[str, tuple[float, float]]) -> "Problem":
        """Return a copy with per-variable bound overrides (used by B&B)."""
        out = Problem(self.name)
        for v in self._variables.values():
            lb, ub = bounds.get(v.name, (v.lb, v.ub))
            if lb > ub:
                raise ValueError(f"override for {v.name}: lb {lb} > ub {ub}")
            out.add_variable(v.name, max(lb, v.lb), min(ub, v.ub), v.domain)
        for c in self._constraints.values():
            out.add_constraint(c.name, c.body, c.lb, c.ub)
        for s in self._sos1.values():
            out.add_sos1(s.name, s.members, s.weights)
        out.set_objective(self.objective, self.sense)
        return out

    def reduce_fixed(self) -> tuple["Problem", dict[str, float]] | None:
        """Substitute out variables whose bounds pin them to a single value.

        Returns ``(reduced_problem, fixed_values)``, or ``None`` when a
        constraint that became constant under the substitution is violated —
        i.e. the fixing is provably infeasible.  Used by the OA subproblem
        path: once branch-and-bound fixes the integers, the NLP only needs
        the handful of genuinely free variables.
        """
        from repro.minlp.expr import Constant  # local import to avoid cycle

        fixed: dict[str, float] = {}
        for v in self._variables.values():
            if math.isfinite(v.lb) and v.ub - v.lb <= 1e-9:
                fixed[v.name] = 0.5 * (v.lb + v.ub)
        if not fixed:
            return self, {}
        mapping = {name: Constant(val) for name, val in fixed.items()}

        out = Problem(f"{self.name}:reduced")
        for v in self._variables.values():
            if v.name not in fixed:
                out.add_variable(v.name, v.lb, v.ub, v.domain)
        for c in self._constraints.values():
            body = c.body.substitute(mapping)
            if body.is_constant():
                value = float(body.evaluate({}))
                if value < c.lb - 1e-6 or value > c.ub + 1e-6:
                    return None  # fixing violates this constraint
                continue
            out.add_constraint(c.name, body, c.lb, c.ub)
        # SOS1 sets: members fixed to zero drop out; if one member is fixed
        # nonzero the rest must be zero, which the caller's bounds already
        # encode, so remaining free members keep the (trimmed) set.
        for s in self._sos1.values():
            free = [
                (m, w)
                for m, w in zip(s.members, s.weights)
                if m not in fixed
            ]
            if len(free) >= 2:
                out.add_sos1(s.name, [m for m, _ in free], [w for _, w in free])
        out.set_objective(self.objective.substitute(mapping), self.sense)
        return out, fixed

    # -- linear extraction (for LP/MILP backends) ---------------------------

    def linear_matrix_form(self):
        """Extract ``(c, c0, A, lb_row, ub_row, var_lb, var_ub)`` if fully linear.

        Rows of ``A`` follow constraint order; columns follow variable order.
        Raises :class:`NonlinearExpressionError` if any piece is nonlinear.
        """
        names = self.variable_names
        index = {n: j for j, n in enumerate(names)}
        nvar = len(names)

        obj_coeffs, c0 = self.objective.linear_coefficients()
        c = np.zeros(nvar)
        for n, v in obj_coeffs.items():
            c[index[n]] = v

        ncon = len(self._constraints)
        A = np.zeros((ncon, nvar))
        row_lb = np.empty(ncon)
        row_ub = np.empty(ncon)
        for i, con in enumerate(self._constraints.values()):
            coeffs, k = con.body.linear_coefficients()
            for n, v in coeffs.items():
                A[i, index[n]] = v
            row_lb[i] = con.lb - k
            row_ub[i] = con.ub - k

        var_lb = np.array([v.lb for v in self._variables.values()])
        var_ub = np.array([v.ub for v in self._variables.values()])
        return c, c0, A, row_lb, row_ub, var_lb, var_ub

    def __repr__(self) -> str:
        kind = "MINLP" if not self.is_linear() else "MILP"
        if not self.is_mip():
            kind = "NLP" if not self.is_linear() else "LP"
        return (
            f"<Problem {self.name!r}: {kind}, {self.num_variables} vars "
            f"({len(self.discrete_variables())} discrete), "
            f"{self.num_constraints} cons, {len(self._sos1)} SOS1>"
        )


def values_to_vector(problem: Problem, values: Mapping[str, float]) -> np.ndarray:
    """Order a name->value mapping into the problem's variable order."""
    return np.array([float(values[n]) for n in problem.variable_names])


def vector_to_values(problem: Problem, x: Iterable[float]) -> dict[str, float]:
    """Inverse of :func:`values_to_vector`."""
    x = list(x)
    names = problem.variable_names
    if len(x) != len(names):
        raise ValueError(f"vector length {len(x)} != {len(names)} variables")
    return {n: float(v) for n, v in zip(names, x)}
