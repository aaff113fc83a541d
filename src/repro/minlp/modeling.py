"""AMPL/Pyomo-style algebraic modeling layer.

The paper writes its optimization models in AMPL.  This module plays that
role: you declare variables, state constraints with ordinary ``<=``/``>=``
comparisons, and :meth:`Model.build` compiles the result into a flat
:class:`repro.minlp.problem.Problem` with automatic derivatives available
through the expression trees.

Example — Table II's fitting problem at a given exponent ``c`` (a number:
an exponent is never a variable, and at fixed ``c`` the curve is linear in
``a``, ``b`` and ``d``) would read::

    m = Model("fit")
    a, b, d = (m.var(s, lb=0.0) for s in "abd")
    residuals = [y - (a / n + b * n ** c + d) for n, y in data]
    m.minimize(sum(r * r for r in residuals))
    problem = m.build()
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.minlp.expr import Expr, ExprLike, Relation, VarRef, as_expr
from repro.minlp.problem import Domain, Problem, Sense


class Model:
    """A declarative optimization model that compiles to a :class:`Problem`."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._vars: dict[str, tuple[float, float, Domain]] = {}
        self._cons: list[tuple[str, Relation]] = []
        self._sos1: list[tuple[str, tuple[str, ...], tuple[float, ...]]] = []
        self._objective: Expr = as_expr(0.0)
        self._sense = Sense.MINIMIZE
        self._auto_con = 0

    # -- variables -----------------------------------------------------

    def var(
        self,
        name: str,
        lb: float = -math.inf,
        ub: float = math.inf,
        *,
        domain: Domain = Domain.CONTINUOUS,
    ) -> VarRef:
        """Declare a continuous/integer variable and return a reference to it."""
        if name in self._vars:
            raise ValueError(f"duplicate variable {name!r}")
        self._vars[name] = (float(lb), float(ub), domain)
        return VarRef(name)

    def integer_var(self, name: str, lb: float = 0.0, ub: float = math.inf) -> VarRef:
        """Declare an integer variable."""
        return self.var(name, lb, ub, domain=Domain.INTEGER)

    def binary_var(self, name: str) -> VarRef:
        """Declare a 0/1 variable."""
        return self.var(name, 0.0, 1.0, domain=Domain.BINARY)

    def var_list(
        self,
        prefix: str,
        count: int,
        lb: float = -math.inf,
        ub: float = math.inf,
        *,
        domain: Domain = Domain.CONTINUOUS,
    ) -> list[VarRef]:
        """Declare ``count`` variables named ``prefix[0] .. prefix[count-1]``."""
        return [self.var(f"{prefix}[{i}]", lb, ub, domain=domain) for i in range(count)]

    # -- constraints ------------------------------------------------------

    def add(self, relation: Relation, name: str | None = None) -> str:
        """Add a constraint built from a comparison, e.g. ``m.add(x + y <= 5)``."""
        if not isinstance(relation, Relation):
            raise TypeError(
                "Model.add expects a Relation (build one with `expr <= rhs`, "
                "`expr >= rhs`, or Relation.equals)"
            )
        if name is None:
            name = f"c{self._auto_con}"
            self._auto_con += 1
        if any(n == name for n, _ in self._cons):
            raise ValueError(f"duplicate constraint name {name!r}")
        self._cons.append((name, relation))
        return name

    def add_equals(self, lhs: ExprLike, rhs: ExprLike, name: str | None = None) -> str:
        """Add an equality constraint ``lhs == rhs``."""
        return self.add(Relation.equals(lhs, rhs), name)

    def sos1(
        self,
        members: Sequence[VarRef],
        weights: Sequence[float] | None = None,
        name: str | None = None,
    ) -> str:
        """Declare a special-ordered set of type 1 over ``members``.

        ``weights`` default to 1..len(members); they give the branching order
        used by the SOS-aware branch-and-bound (paper §III-E).
        """
        names = tuple(v.name for v in members)
        if weights is None:
            weights = tuple(float(i + 1) for i in range(len(names)))
        if name is None:
            name = f"sos1_{len(self._sos1)}"
        self._sos1.append((name, names, tuple(float(w) for w in weights)))
        return name

    # -- objective --------------------------------------------------------

    def minimize(self, expr: ExprLike) -> None:
        """Set a minimization objective."""
        self._objective = as_expr(expr)
        self._sense = Sense.MINIMIZE

    def maximize(self, expr: ExprLike) -> None:
        """Set a maximization objective."""
        self._objective = as_expr(expr)
        self._sense = Sense.MAXIMIZE

    # -- compilation ---------------------------------------------------------

    def build(self) -> Problem:
        """Compile the model into a solver-ready :class:`Problem`.

        Constant terms in a relation body are folded into the bounds so the
        flat problem's constraint bodies always reference at least one
        variable.
        """
        prob = Problem(self.name)
        for name, (lb, ub, domain) in self._vars.items():
            prob.add_variable(name, lb, ub, domain)
        for name, rel in self._cons:
            body = rel.body
            lb, ub = rel.lb, rel.ub
            if body.is_constant():
                value = float(body.evaluate({}))
                if not (lb <= value <= ub):
                    raise ValueError(
                        f"constraint {name!r} is constant and infeasible: "
                        f"{lb} <= {value} <= {ub}"
                    )
                continue  # trivially true; drop
            prob.add_constraint(name, body, lb, ub)
        for name, members, weights in self._sos1:
            prob.add_sos1(name, members, weights)
        prob.set_objective(self._objective, self._sense)
        return prob

    def __repr__(self) -> str:
        return (
            f"<Model {self.name!r}: {len(self._vars)} vars, "
            f"{len(self._cons)} cons, {len(self._sos1)} SOS1>"
        )
