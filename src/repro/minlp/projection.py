"""Projection of continuous relaxations onto the space without SOS1 members.

The paper's sweet-spot sets enter a model as selection variables ``z`` tied
by a convexity row ``sum z = 1`` and a few linear link rows (Table I lines
29–31).  In a *continuous relaxation* those ``z`` range over a simplex whose
vertices are the unit vectors, so a link row's ``a·z`` ranges exactly over
``[min a_k, max a_k]``: the row can be restated on the remaining variables
with its bounds widened by that interval, and the ``z`` disappear.  A dense
SQP iteration is cubic in the variable count, and the 1-degree ocean set
alone carries 241 members next to five genuine unknowns.

The per-row intervals are exact for one link row and for the run/value
encodings :mod:`repro.core.builder` emits; several rows over one set could
in principle be jointly tighter than their intervals.  :meth:`Projection.lift`
therefore *constructs* the eliminated members for a solved point (one small
LP over the members only) and reports failure when none exists — the caller
then solves that relaxation in the full space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.minlp.expr import ZERO, Expr, NonlinearExpressionError
from repro.minlp.linprog import LinearProgram, solve_lp
from repro.minlp.problem import Problem
from repro.minlp.solution import Status


@dataclass
class _LinkRow:
    """A linear row touching eliminated members: ``lb <= rest(x) + a·z <= ub``."""

    rest: Expr  # the row with every eliminated member set to zero
    lb: float
    ub: float
    lo: float  # min of a·z over the simplices
    hi: float  # max of a·z over the simplices


@dataclass
class Projection:
    """A relaxation restated without its eligible SOS1 members."""

    #: What the NLP solver sees; the original problem when nothing was eligible.
    problem: Problem
    #: Eliminated members, grouped set by set.
    members: tuple[str, ...] = ()
    _upper: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Lift LP over the members: one convexity row per set, then the links.
    _matrix: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    _links: list[_LinkRow] = field(default_factory=list)

    def lift(self, values: dict[str, float]) -> dict[str, float] | None:
        """Complete a point of :attr:`problem` with the eliminated members.

        Returns ``None`` when no member assignment reproduces the link rows
        at ``values`` — the projection was not exact for this row pattern.
        """
        if not self.members:
            return values
        row_lb, row_ub = [], []
        for link in self._links:
            rest = float(link.rest.evaluate(values))
            # ``values`` may sit a solver tolerance outside the projected
            # row; never ask the members for more than they can reach.
            row_lb.append(min(link.lb - rest, link.hi))
            row_ub.append(max(link.ub - rest, link.lo))
        ones = np.ones(len(self._matrix) - len(self._links))
        res = solve_lp(
            LinearProgram(
                c=np.zeros(len(self.members)),
                A=self._matrix,
                row_lb=np.concatenate([ones, row_lb]),
                row_ub=np.concatenate([ones, row_ub]),
                var_lb=np.zeros(len(self.members)),
                var_ub=self._upper,
            )
        )
        if res.status is not Status.OPTIMAL:
            return None
        z = np.clip(res.x, 0.0, self._upper)
        return {**values, **dict(zip(self.members, z.tolist()))}


def project_sos1(problem: Problem) -> Projection | None:
    """Eliminate every eligible SOS1 set from the relaxation of ``problem``.

    A set is eligible when its members are ``[0, ub >= 1]`` selection
    variables tied by an exact convexity row ``sum z = 1`` and appear in
    neither the objective nor any nonlinear row.  Call this on a problem
    already through :meth:`Problem.reduce_fixed`: members that branching
    pinned to zero are gone from the set by then, so the intervals range
    over the members still selectable at this node.

    Returns the projection (whose ``problem`` *is* ``problem`` when nothing
    is eligible), or ``None`` when a row left without variables is violated
    for every member choice — the relaxation is infeasible.
    """
    if not problem.sos1_sets:
        return Projection(problem)

    blocked = set(problem.objective.variables())
    linear: dict[str, tuple[dict[str, float], float]] = {}
    for con in problem.constraints:
        try:
            linear[con.name] = con.body.linear_coefficients()
        except NonlinearExpressionError:
            blocked |= con.body.variables()

    groups: list[tuple[str, ...]] = []
    convexity_rows: set[str] = set()
    taken: set[str] = set()
    for sos in problem.sos1_sets:
        members = set(sos.members)
        if members & (blocked | taken):
            continue
        if any(
            (v := problem.variable(m)).lb != 0.0 or v.ub < 1.0 for m in sos.members
        ):
            continue
        row = next(
            (
                name
                for name, (coeffs, const) in linear.items()
                if coeffs.keys() == members
                and all(c == 1.0 for c in coeffs.values())
                and (con := problem.constraint(name)).lb == con.ub == 1.0 + const
            ),
            None,
        )
        if row is None:
            continue
        groups.append(sos.members)
        convexity_rows.add(row)
        taken |= members
    if not groups:
        return Projection(problem)

    eliminated = tuple(m for group in groups for m in group)
    column = {m: j for j, m in enumerate(eliminated)}
    zeroed = dict.fromkeys(eliminated, ZERO)
    edges = np.cumsum([0] + [len(g) for g in groups])
    rows = []
    for i in range(len(groups)):
        rows.append(np.zeros(len(eliminated)))
        rows[i][edges[i]:edges[i + 1]] = 1.0

    small = Problem(f"{problem.name}:projected")
    for v in problem.variables:
        if v.name not in taken:
            small.add_variable(v.name, v.lb, v.ub, v.domain)
    links: list[_LinkRow] = []
    for con in problem.constraints:
        if con.name in convexity_rows:
            continue
        coeffs, _ = linear.get(con.name, ({}, 0.0))
        if taken.isdisjoint(coeffs):
            small.add_constraint(con.name, con.body, con.lb, con.ub)
            continue
        a = np.zeros(len(eliminated))
        for name in taken.intersection(coeffs):
            a[column[name]] = coeffs[name]
        # One member per set is selected, so a·z ranges over the sum of the
        # per-set [min, max] (members the row skips contribute a zero).
        lo = float(sum(a[edges[i]:edges[i + 1]].min() for i in range(len(groups))))
        hi = float(sum(a[edges[i]:edges[i + 1]].max() for i in range(len(groups))))
        rest = con.body.substitute(zeroed)
        rows.append(a)
        links.append(_LinkRow(rest, con.lb, con.ub, lo, hi))
        if rest.is_constant():
            value = float(rest.evaluate({}))
            if value < con.lb - hi - 1e-6 or value > con.ub - lo + 1e-6:
                return None
            continue
        small.add_constraint(con.name, rest, con.lb - hi, con.ub - lo)
    for sos in problem.sos1_sets:
        if sos.members not in groups:
            small.add_sos1(sos.name, sos.members, sos.weights)
    small.set_objective(problem.objective, problem.sense)

    return Projection(
        small,
        eliminated,
        np.array([problem.variable(m).ub for m in eliminated]),
        np.vstack(rows),
        links,
    )
