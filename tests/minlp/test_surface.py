"""The solver's surface: every option it takes has a caller outside the
tests, and every expression kind it speaks is built by some problem."""

from dataclasses import replace

from repro.cesm.components import one_degree_ground_truth, one_degree_minor_ground_truth
from repro.cesm.grids import one_degree
from repro.cesm.layouts import Layout, formulate_layout
from repro.core.objectives import Objective
from repro.minlp import (
    BnBOptions,
    BranchAndBound,
    solve_minlp_nlpbb,
    solve_minlp_oa,
    solve_nlp,
)
from repro.service.solver import build_problem
from tests.census import expr_kinds, expr_kinds_built, options_of, orphans
from tests.minlp.test_engine_independence import _fmo_problem, _request_pool

#: The entry points whose keywords the census covers, by the name they are
#: imported and called under (a method call ``x.solve(...)`` is some other
#: ``solve``).  The first parameter (the problem) is not an option.
SURFACES = {
    **{
        f.__name__: options_of(f, skip=1)
        for f in (solve_minlp_oa, solve_minlp_nlpbb, solve_nlp, BranchAndBound)
    },
    "BnBOptions": options_of(BnBOptions),
}


def test_every_solver_option_has_a_non_test_caller():
    """A keyword of ``solve_minlp_oa``, ``solve_minlp_nlpbb``, ``solve_nlp``
    or ``BranchAndBound``, or a ``BnBOptions`` field, stays only
    while ``src/``, ``benchmarks/`` or ``examples/`` passes it.  Adding an
    option means adding its caller."""
    missing = orphans(SURFACES)
    assert not missing, f"options with no non-test caller: {sorted(missing)}"


def _formulate_and_solve_every_problem_kind() -> None:
    """What the pipelines and the service formulate, OA-solved where they
    run OA: the three CESM layouts (1°, 512 nodes) with and without Tsync
    and the minor components, an FMO ladder block, and a served request
    under each objective."""
    config = one_degree()
    models = {c: g.model for c, g in one_degree_ground_truth().items()}
    minors = {m: g.model for m, g in one_degree_minor_ground_truth().items()}
    for layout in Layout:
        for tsync in (None, 5.0):
            for minor_models in (None, minors):
                problem = formulate_layout(
                    models, 512, config, layout=layout, tsync=tsync,
                    minor_models=minor_models,
                )
                if tsync is None or layout is not Layout.HYBRID:  # else nonconvex
                    solve_minlp_oa(problem).require_ok()
    solve_minlp_oa(_fmo_problem(0)).require_ok()
    request = _request_pool()[0]
    for objective in Objective:
        served = replace(request, objective=objective.value)
        solve_minlp_oa(build_problem(served)).require_ok()


def test_every_expression_kind_is_built_by_a_problem():
    """``repro.minlp.expr`` speaks exactly what the problems build: a node
    kind no pipeline or served problem constructs (a transcendental, say)
    is language no user reaches, and a kind they build must exist."""
    with expr_kinds_built() as built:
        _formulate_and_solve_every_problem_kind()
    defined = expr_kinds()
    assert built == defined, (
        f"defined, never built: {sorted(k.__name__ for k in defined - built)}; "
        f"built, not defined: {sorted(k.__name__ for k in built - defined)}"
    )
