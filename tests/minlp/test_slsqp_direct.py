"""The direct SLSQP driver is ``minimize(method="SLSQP")``, bit for bit.

``repro.minlp.nlp`` hands each relaxation to scipy's C routine itself
(``_slsqplib.slsqp``), with every row's value and gradient from compiled
trees (:meth:`Expr.compiled`).  The oracle is ``minimize`` with one dict
constraint per row side and closures that walk the trees with
``Expr.evaluate`` — how the NLP layer called it before.  Every run is
replayed through it and the two must agree on the bytes of ``x``, the
iteration count, the exit mode and the message.  The runs come from the
ledger's nine pipeline blocks (every SLSQP call their solves make), from an
NLP-B&B solve of a Tsync layout and from keyed NLPs with
equality and range rows, maximization, free variables, infeasible
starts and infeasible problems.
"""

from __future__ import annotations

import ast
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.minlp.nlp as nlp
from repro.cesm.app import CESMApplication
from repro.cesm.grids import one_degree
from repro.core.hslb import HSLBOptimizer
from repro.minlp.expr import VarRef
from repro.minlp.nlpbb import solve_minlp_nlpbb
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.problem import Problem, Sense
from repro.minlp.solution import Status
from repro.util.rng import keyed_rng

REPO = pathlib.Path(__file__).resolve().parents[2]


def _minimize_answer(small: Problem, start: np.ndarray):
    """``(x, nit, status, message)`` of ``minimize`` on ``small`` from ``start``."""
    from scipy.optimize import minimize

    names = small.variable_names
    lo = np.array([v.lb for v in small.variables])
    hi = np.array([v.ub for v in small.variables])

    def at(x):
        return dict(zip(names, np.clip(x, lo, hi)))

    def gradient(expr):
        try:
            coeffs, _ = expr.linear_coefficients()
        except Exception:
            active = expr.variables()
            partials = [expr.diff(n) if n in active else None for n in names]
            return lambda x: np.array(
                [0.0 if g is None else g.evaluate(at(x)) for g in partials],
                dtype=float,
            )
        base = np.array([coeffs.get(n, 0.0) for n in names], dtype=float)
        return lambda x: base.copy()

    def value(expr):
        return lambda x: float(expr.evaluate(at(x)))

    sign = -1.0 if small.sense is Sense.MAXIMIZE else 1.0
    f, df = value(small.objective), gradient(small.objective)
    cons = []
    for con in small.constraints:
        g, dg = value(con.body), gradient(con.body)
        if con.is_equality:
            cons.append({"type": "eq", "fun": lambda x, g=g, b=con.lb: g(x) - b, "jac": dg})
            continue
        if math.isfinite(con.ub):
            cons.append({"type": "ineq", "fun": lambda x, g=g, b=con.ub: b - g(x),
                         "jac": lambda x, dg=dg: -dg(x)})
        if math.isfinite(con.lb):
            cons.append({"type": "ineq", "fun": lambda x, g=g, b=con.lb: g(x) - b, "jac": dg})
    bounds = [
        (v.lb if math.isfinite(v.lb) else None, v.ub if math.isfinite(v.ub) else None)
        for v in small.variables
    ]
    res = minimize(
        lambda x: sign * f(x), start, jac=lambda x: sign * df(x), bounds=bounds,
        constraints=cons, method="SLSQP", tol=nlp._TOL,
        options={"maxiter": nlp._MAX_ITER},
    )
    return np.asarray(res.x, dtype=float), res.nit, res.status, res.message


class _Oracle:
    """Replays every ``_slsqp`` run through ``minimize``."""

    def __init__(self, monkeypatch):
        self.calls = 0
        problem_class = nlp._SLSQPProblem
        slsqp_run = nlp._slsqp

        class Recording(problem_class):
            def __init__(self, small, lo, hi):
                super().__init__(small, lo, hi)
                self.small = small

        def replaying(prob, start):
            self.calls += 1
            try:
                ref = _minimize_answer(prob.small, np.clip(start, prob.lo, prob.hi))
            except (ValueError, FloatingPointError, ZeroDivisionError, OverflowError):
                with pytest.raises((ValueError, FloatingPointError, ZeroDivisionError,
                                    OverflowError)):
                    slsqp_run(prob, start)
                raise
            x, nit, mode = slsqp_run(prob, start)
            where = f"call {self.calls}: {prob.small!r} from {start.tolist()}"
            assert x.tobytes() == ref[0].tobytes(), (where, x, ref[0])
            assert (nit, mode, nlp._EXIT_MODES[mode]) == ref[1:], where
            return x, nit, mode

        monkeypatch.setattr(nlp, "_SLSQPProblem", Recording)
        monkeypatch.setattr(nlp, "_slsqp", replaying)


@pytest.fixture(scope="module")
def catalogue():
    """The ledger's instance definitions, loaded from the harness itself."""
    path = REPO / "benchmarks/e2e/catalogue.py"
    spec = importlib.util.spec_from_file_location("e2e_catalogue", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # for its dataclasses
        spec.loader.exec_module(module)
        yield module


_BLOCKS = [("cesm", i) for i in range(6)] + [("fmo", i) for i in range(3)]


@pytest.mark.parametrize("kind,index", _BLOCKS, ids=[f"{k}{i}" for k, i in _BLOCKS])
def test_every_ledger_slsqp_run_matches_minimize(
    catalogue, monkeypatch, tracer, kind, index
):
    """The pipeline's own run (gather, fit, solve) of each ledger block,
    every SLSQP run of its solve replayed through ``minimize``.  A CESM
    pipeline's OA starts at the direct scan and solves no root relaxation,
    so a CESM block also replays the cold OA solve of the same formulated
    problem: the path ablations A2/A4 take."""
    oracle = _Oracle(monkeypatch)
    blocks = catalogue.cesm_blocks() if kind == "cesm" else catalogue.fmo_blocks()
    block = blocks[index]
    app = block.make_app()
    plan = HSLBOptimizer(app).run(
        block.campaign, block.total_nodes, block.plan_rng(), execute=False
    )
    assert plan.solution.status is Status.OPTIMAL
    if kind == "cesm":
        assert tracer.find("minlp.oa").tags["start"] == "accepted"
        models = {name: fit.model for name, fit in plan.fits.items()}
        cold = solve_minlp_oa(app.formulate(models, block.total_nodes))
        assert cold.objective == pytest.approx(plan.predicted_total, rel=1e-9)
    assert oracle.calls > 0  # at least the root relaxation


def test_tsync_nlpbb_runs_match_minimize(monkeypatch):
    """NLP-B&B on the nonconvex Tsync layout (the pipeline's fits; the
    pipeline itself answers it with the layout scan): every node NLP run
    matches."""
    app = CESMApplication(one_degree(), tsync=0.5)
    opt = HSLBOptimizer(app)
    plan = opt.run((32, 64, 128, 256, 512), 128, np.random.default_rng(7), execute=False)
    assert plan.solver_tier == "direct"
    models = {name: fit.model for name, fit in plan.fits.items()}
    oracle = _Oracle(monkeypatch)
    sol = solve_minlp_nlpbb(app.formulate(models, 128))
    assert sol.status is Status.OPTIMAL
    assert sol.objective >= plan.predicted_total - 1e-6
    # One SLSQP run per node NLP, each replayed.
    assert oracle.calls == sol.stats.nlp_solves >= sol.stats.nodes_explored > 1


def _keyed_nlp(key: int, shape: str) -> tuple[Problem, dict[str, float] | None]:
    """A small smooth NLP of the named shape, and maybe a warm start."""
    rng = keyed_rng(key, "slsqp-direct", shape)
    n = int(rng.integers(1, 6))
    p = Problem(f"keyed-{shape}")
    xs = []
    for i in range(n):
        lb = float(rng.uniform(0.5, 2.0))
        ub = lb + float(rng.uniform(1.0, 20.0))
        if shape == "free":
            lb = -math.inf if rng.uniform() < 0.5 else lb
            ub = math.inf if rng.uniform() < 0.5 else ub
        p.add_variable(f"x{i}", lb, ub)
        xs.append(VarRef(f"x{i}"))
    t = VarRef("t")
    p.add_variable("t", -1e3 if shape == "free" else 0.0, 1e4)
    for i, x in enumerate(xs):
        a, b, c = (float(v) for v in rng.uniform([1.0, 0.0, 1.0], [100.0, 0.1, 2.5]))
        body = t - (a / x + b * x**c)
        p.add_constraint(f"perf{i}", body, lb=0.0)
    total = sum(xs[1:], xs[0])
    budget = float(sum(v.lb if math.isfinite(v.lb) else 1.0 for v in p.variables[:n]))
    # An infeasible problem asks for less than the lower bounds add up to.
    budget += float(rng.uniform(-5.0, -1.0) if shape == "infeasible" else rng.uniform(1.0, 10.0))
    if shape == "equality":
        p.add_constraint("budget", total, lb=budget, ub=budget)
    elif shape == "range":
        p.add_constraint("budget", total, lb=budget - 2.0, ub=budget)
        curve = (xs[0] / 10.0 + 1.0) ** 3.0 + xs[-1] ** 0.5 + 1.0 / (xs[0] + 1.0)
        p.add_constraint("curve", curve, lb=1.0, ub=1e6)
        p.add_constraint("power", xs[0] ** 1.5 * (1.0 + t / 1e5), ub=1e6)
    else:
        p.add_constraint("budget", total, ub=budget)
    if shape == "maximize":
        p.set_objective((xs[0] + 1.0) ** 0.5 - t / 100.0, Sense.MAXIMIZE)
    else:
        p.set_objective(t + 0.01 * total, Sense.MINIMIZE)
    x0 = None
    if shape == "infeasible-start":
        x0 = {name: float(rng.uniform(50.0, 500.0)) for name in p.variable_names}
    return p, x0


_SHAPES = ("plain", "equality", "range", "maximize", "free", "infeasible-start", "infeasible")


@settings(max_examples=60, deadline=None)
@given(key=st.integers(0, 2**31 - 1), shape=st.sampled_from(_SHAPES))
def test_keyed_nlps_match_minimize(key, shape):
    problem, x0 = _keyed_nlp(key, shape)
    with pytest.MonkeyPatch.context() as mp:
        oracle = _Oracle(mp)
        nlp.solve_nlp(problem, x0=x0)
    assert oracle.calls == 1


def test_a_problem_without_variables_is_refused_like_minimize():
    empty = Problem("empty")
    empty.set_objective(VarRef("x") * 0.0 + 1.0)
    with pytest.raises(ValueError):
        _minimize_answer(empty, np.zeros(0))
    prob = nlp._SLSQPProblem(empty, np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError):
        nlp._slsqp(prob, np.zeros(0))


def test_the_private_scipy_entry_points_exist():
    """The floor in ``pyproject.toml`` ships every scipy private the solver
    calls: SLSQP's C routine (``nlp``), HiGHS's core binding and the
    ``_Highs`` methods a reused node engine calls (``linprog``), LAPACK's
    ``gesdd`` with its workspace query (``perf.trf``)."""
    from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs
    from scipy.optimize._highspy import _core
    from scipy.optimize._slsqplib import slsqp

    for entry in (slsqp, _compute_lwork):
        assert callable(entry)
    for name in ("_Highs", "HighsLp", "HighsOptions", "HighsStatus", "HighsModelStatus"):
        assert hasattr(_core, name), name
    for method in (
        "passOptions", "passModel", "clearSolver", "changeColsBounds", "run",
        "getModelStatus", "getInfo", "getSolution", "modelStatusToString",
        "solutionStatusToString",
    ):
        assert callable(getattr(_core._Highs, method, None)), method
    gesdd, gesdd_lwork = get_lapack_funcs(("gesdd", "gesdd_lwork"), dtype=np.float64)
    assert callable(gesdd) and callable(gesdd_lwork)


def test_minimize_is_imported_nowhere_under_minlp():
    """``minimize`` stays the oracle: no module of the solver imports it."""
    offenders = []
    for path in sorted((REPO / "src/repro/minlp").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            elif isinstance(node, ast.Attribute) and ast.unparse(node).endswith(
                "optimize.minimize"
            ):
                names = ["minimize"]
            else:
                continue
            if "minimize" in names:
                offenders.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert offenders == []
