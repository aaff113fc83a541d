"""The candidate objective functions of §III-D.

Given per-component time expressions ``T_j(n_j)``, the paper considers:

1. **min-max** (eq. 1) — minimize the slowest component; the objective used
   throughout the paper ("performed slightly better than max-min");
2. **max-min** (eq. 2) — maximize the fastest component (pushes everything
   to be equally loaded from below);
3. **min-sum** (eq. 3) — minimize total time; "obviously out of
   consideration" for CESM because components overlap, and previously shown
   to perform much worse for FMO.

All three are implemented so the ablation benchmark can quantify those
claims; :func:`apply_objective` rewrites each into smooth epigraph form so
any solver in the toolkit can handle them.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping

from repro.minlp.expr import Expr, VarRef, sum_exprs
from repro.minlp.modeling import Model


class Objective(enum.Enum):
    """§III-D objective selection."""

    MIN_MAX = "min-max"
    MAX_MIN = "max-min"
    MIN_SUM = "min-sum"

    @property
    def oa_safe(self) -> bool:
        """Whether :func:`apply_objective` emits only rows OA can cut.

        MAX_MIN's epigraph rows are ``T <= convex``, a nonconvex region:
        linearization cuts would be invalid there, so the service and the
        FMO scheduler answer it with :func:`repro.core.greedy.maxmin_allocation`
        (its MINLP form is the reference tests enumerate) — and it needs the
        node budget spent exactly, or "raising the floor" degenerates into
        starving everything.
        """
        return self is not Objective.MAX_MIN

    @property
    def has_direct_solver(self) -> bool:
        """Whether a flat problem — one budget row over univariate curves,
        optional box bounds — has an exact polynomial-time answer in
        :mod:`repro.core.greedy` under this objective (§III-E).

        The two objectives that *compare* components do (the heap for
        min-max, level sets for max-min); min-sum does not.  This is the
        one place the service asks whether a request goes to the direct
        solver or builds a MINLP (and with it, whether it ships to a worker
        process).
        """
        return self is not Objective.MIN_SUM


def apply_objective(
    model: Model,
    objective: Objective,
    time_exprs: Mapping[str, Expr],
    *,
    time_upper_bound: float,
) -> VarRef | None:
    """Install ``objective`` over ``time_exprs`` on ``model``.

    * MIN_MAX adds ``T >= T_j`` for every component and minimizes ``T``;
    * MAX_MIN adds ``T <= T_j`` and maximizes ``T``;
    * MIN_SUM minimizes ``sum_j T_j`` directly (no epigraph variable).

    Returns the epigraph variable (None for MIN_SUM).  ``time_upper_bound``
    bounds the epigraph variable so relaxations stay bounded.
    """
    if not time_exprs:
        raise ValueError("no component time expressions supplied")
    if objective is Objective.MIN_SUM:
        # Separable epigraph: one auxiliary per component.  Outer
        # approximation then cuts each T_j surface independently, which is
        # dramatically tighter than linearizing the full sum at once.
        aux = []
        for name, expr in time_exprs.items():
            t_j = model.var(f"t_{name}", lb=0.0, ub=float(time_upper_bound))
            model.add(t_j >= expr, f"minsum_{name}")
            aux.append(t_j)
        model.minimize(sum_exprs(aux))
        return None
    t = model.var("T", lb=0.0, ub=float(time_upper_bound))
    if objective is Objective.MIN_MAX:
        for name, expr in time_exprs.items():
            model.add(t >= expr, f"minmax_{name}")
        model.minimize(t)
    else:  # MAX_MIN
        for name, expr in time_exprs.items():
            model.add(t <= expr, f"maxmin_{name}")
        model.maximize(t)
    return t


def evaluate_objective(
    objective: Objective, component_times: Mapping[str, float]
) -> float:
    """Score realized component times under the chosen objective.

    Useful for comparing allocations produced under different objectives on
    an equal footing (the ablation reports all three scores per allocation).
    """
    times = list(component_times.values())
    if not times:
        raise ValueError("no component times supplied")
    if objective is Objective.MIN_MAX:
        return max(times)
    if objective is Objective.MAX_MIN:
        return min(times)
    return sum(times)
