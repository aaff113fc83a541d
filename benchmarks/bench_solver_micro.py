"""Micro-benchmarks of the MINLP toolkit's hot paths.

Not tied to a paper artifact; these track the substrate's performance so
regressions in the solver stack (which every experiment depends on) show up
as benchmark deltas rather than mysteriously slow tables.

Expression nodes memoize their analysis (``variables``, ``diff``,
``linear_coefficients``), so a benchmark that times analysis or a solve
hands each round a fresh problem or expression through
``benchmark.pedantic(setup=...)``: re-solving one object would time
dictionary lookups.
"""

import json
import os
import pathlib

import numpy as np
import pytest

from repro.cesm.grids import one_degree
from repro.cesm.layouts import Layout, formulate_layout
from repro.core.hslb import HSLBOptimizer
from repro.fmo.app import FMOApplication
from repro.fmo.molecules import protein_like
from repro.minlp import Model, solve_minlp_oa
from repro.minlp.linprog import IncrementalLPSolver, LinearProgram, solve_lp
from repro.perf.fitting import fit_performance_model, fit_suite
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng

_MODELS = {
    "lnd": PerformanceModel(a=1483.0, d=2.1),
    "ice": PerformanceModel(a=7600.0, d=11.0),
    "atm": PerformanceModel(a=27380.0, d=43.0),
    "ocn": PerformanceModel(a=7550.0, d=45.0),
}


@pytest.fixture(scope="module", autouse=True)
def _micro_baseline(request):
    """Persist this module's timings as benchmarks/out/BENCH_solver_micro.json.

    Reads pytest-benchmark's session store defensively: when the plugin is
    absent or disabled the fixture silently does nothing, so the module
    still runs as a plain test file.

    ``HSLB_BENCH_OUT`` overrides the output path — the regression gate
    (``make bench-check``) writes a fresh file there and diffs it against
    the committed baseline instead of clobbering it.
    """
    yield
    session = getattr(request.config, "_benchmarksession", None)
    if session is None:
        return
    out = {}
    for bench in getattr(session, "benchmarks", []):
        if "bench_solver_micro" not in str(getattr(bench, "fullname", "")):
            continue
        stats = getattr(bench, "stats", None)
        stats = getattr(stats, "stats", stats)  # unwrap Metadata -> Stats
        record = {}
        for key in ("min", "max", "mean", "stddev", "rounds"):
            value = getattr(stats, key, None)
            if value is not None:
                record[key] = float(value)
        if record:
            out[getattr(bench, "name", "bench")] = record
    if not out:
        return
    override = os.environ.get("HSLB_BENCH_OUT")
    if override:
        path = pathlib.Path(override)
    else:
        path = pathlib.Path(__file__).parent / "out" / "BENCH_solver_micro.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"[baseline saved to {path}]")


def _random_lp(n=60, m=40, seed=0):
    rng = default_rng(seed)
    return LinearProgram(
        c=rng.normal(size=n),
        A=rng.normal(size=(m, n)),
        row_lb=np.full(m, -np.inf),
        row_ub=rng.uniform(1.0, 5.0, size=m),
        var_lb=np.zeros(n),
        var_ub=np.full(n, 10.0),
    )


def test_lp_highs_backend(benchmark):
    lp = _random_lp()
    result = benchmark(lambda: solve_lp(lp))
    assert result.status.value == "optimal"


def _bnb_knapsack(items, seed=0):
    rng = default_rng(seed)
    value = rng.uniform(1.0, 10.0, items)
    weight = rng.uniform(1.0, 5.0, items)
    m = Model(f"bench-knapsack{items}")
    xs = [m.binary_var(f"x{i}") for i in range(items)]
    m.add(sum(float(weight[i]) * xs[i] for i in range(items)) <= float(weight.sum()) / 2)
    m.maximize(sum(float(value[i]) * xs[i] for i in range(items)))
    return m.build()


@pytest.mark.parametrize("items", [8, 16, 28], ids=["small", "medium", "large"])
def test_bnb_node_throughput(benchmark, items):
    """B&B node throughput on default options (small HiGHS node LPs)."""
    from repro.minlp.milp import solve_milp

    sol = benchmark.pedantic(
        solve_milp, setup=lambda: ((_bnb_knapsack(items),), {}), rounds=3, iterations=1
    )
    assert sol.status.value == "optimal"
    benchmark.extra_info["nodes"] = sol.stats.nodes_explored


def _oa_instance(components):
    m = Model(f"bench-oa{components}")
    t = m.var("t", lb=0.0)
    rng = default_rng(components)
    total = 64 * components
    ns = [m.integer_var(f"n{i}", 1, total) for i in range(components)]
    m.add(sum(ns) <= total)
    for i, n in enumerate(ns):
        a = float(rng.uniform(50.0, 400.0))
        d = float(rng.uniform(0.5, 4.0))
        m.add(t >= a / n + d * n)
    m.minimize(t)
    return m.build()


@pytest.mark.parametrize("components", [2, 4, 6], ids=["small", "medium", "large"])
def test_oa_master_iterations(benchmark, components):
    """Single-tree OA wall time (pooled cuts) at growing instance sizes."""
    sol = benchmark.pedantic(
        solve_minlp_oa, setup=lambda: ((_oa_instance(components),), {}),
        rounds=3, iterations=1,
    )
    assert sol.status.value in ("optimal", "feasible")
    benchmark.extra_info["cuts"] = sol.stats.cuts_added


def test_incremental_lp_node_resolve(benchmark):
    """The branch-and-bound inner loop: bound override + resolve."""
    problem = formulate_layout(_MODELS, 2048, one_degree(), layout=Layout.HYBRID)
    # Strip nonlinear rows for the LP master skeleton.
    from repro.minlp.oa import _epigraph_form, _linear_master

    master = _linear_master(_epigraph_form(problem)[0])
    inc = IncrementalLPSolver(master)
    sol = benchmark(lambda: inc.solve({"n_ocn": (2.0, 128.0)}))
    assert sol.status.value == "optimal"


def test_layout1_full_solve(benchmark):
    """End-to-end MINLP solve of the 1-degree layout-1 model at 2048."""
    sol = benchmark.pedantic(
        solve_minlp_oa,
        setup=lambda: ((formulate_layout(_MODELS, 2048, one_degree(), layout=Layout.HYBRID),), {}),
        rounds=3,
        iterations=1,
    )
    assert sol.status.value == "optimal"


def test_wide_sos_formulate(benchmark):
    """Build the 1-degree layout-1 model at 2048 (its ocean set is 241
    selection binaries, one SOS1 row each way) and substitute one integer
    assignment out of it, as an OA fixed-integer subproblem does."""
    problem = formulate_layout(_MODELS, 2048, one_degree(), layout=Layout.HYBRID)
    sol = solve_minlp_oa(problem)
    fixed = {
        v.name: (round(sol.values[v.name]),) * 2 for v in problem.discrete_variables()
    }

    def formulate_and_reduce():
        wide = formulate_layout(_MODELS, 2048, one_degree(), layout=Layout.HYBRID)
        return wide.with_bounds(fixed).reduce_fixed()

    reduced, values = benchmark(formulate_and_reduce)
    assert len(values) == len(fixed) > 241
    assert reduced.is_linear()


def test_many_fragment_minlp_stress(benchmark):
    """Scalability guard: OA on a 24-fragment min-max MINLP at 2048 nodes.

    ``hslb_schedule`` answers this problem with the heap; the OA tree is
    timed directly because it is what the FMO pipeline still runs (gated:
    its node LPs all go to the tree's one HiGHS instance).
    """
    sol = benchmark.pedantic(
        solve_minlp_oa,
        setup=lambda: ((_fmo_minmax(24, 2048, 6),), {}),
        rounds=3,
        iterations=1,
    )
    assert sol.status.value in ("optimal", "feasible")
    counts = [round(sol.values[f"n_frag{i}"]) for i in range(24)]
    assert sum(counts) <= 2048


def _fmo_minmax(fragments: int, nodes: int, seed: int):
    """A ``fragments``-fragment protein's min-max MINLP at ``nodes`` on
    ground-truth curves, the protein drawn from ``default_rng(seed)``."""
    from repro.core.builder import AllocationModelBuilder
    from repro.core.objectives import Objective
    from repro.fmo.molecules import protein_like
    from repro.fmo.schedulers import fragment_models

    system = protein_like(fragments, default_rng(seed))
    builder = AllocationModelBuilder(f"fmo-{system.name}", nodes)
    for i, model in fragment_models(system).items():
        builder.add_component(f"frag{i}", model)
    builder.limit_total_nodes()
    builder.set_objective(Objective.MIN_MAX)
    return builder.build()


_ROOTS = {
    "1deg-2048": lambda: formulate_layout(_MODELS, 2048, one_degree(), layout=Layout.HYBRID),
    "protein-24@256": lambda: _fmo_minmax(24, 256, 24),
}


@pytest.mark.parametrize("key", list(_ROOTS))
def test_root_relaxation(benchmark, key):
    """OA's root relaxation: ``solve_nlp`` on the epigraph form, one SLSQP
    run (the 1-degree ocean set projected out first)."""
    from repro.minlp.nlp import solve_nlp
    from repro.minlp.oa import _epigraph_form

    sol = benchmark.pedantic(
        solve_nlp, setup=lambda: ((_epigraph_form(_ROOTS[key]())[0],), {}),
        rounds=30, iterations=1,
    )
    assert sol.status.value == "optimal"
    benchmark.extra_info["nlp_solves"] = sol.stats.nlp_solves


def test_fitting_throughput(benchmark):
    truth = PerformanceModel(a=27380.0, b=1e-3, c=1.0, d=43.0)
    rng = default_rng(1)
    nodes = np.array([32.0, 64.0, 128.0, 512.0, 2048.0])
    y = truth.time(nodes) * np.exp(rng.normal(0, 0.02, nodes.size))
    fit = benchmark(lambda: fit_performance_model(nodes, y, rng=default_rng(2)))
    assert fit.r_squared > 0.999


@pytest.fixture(scope="module")
def fmo24_suite():
    """A 24-fragment protein's benchmark suite: six points a fragment."""
    app = FMOApplication(protein_like(24, default_rng(3)))
    return HSLBOptimizer(app).gather([1, 2, 4, 8, 16, 32], default_rng(4))


def test_suite_fit_throughput(benchmark, fmo24_suite):
    """Step 2 on a whole suite: 120 starts of one point count, in lockstep."""
    fits = benchmark(lambda: fit_suite(fmo24_suite, rng=default_rng(2)))
    assert len(fits) == 24
    assert min(fit.r_squared for fit in fits.values()) > 0.99


def test_expression_differentiation(benchmark):
    """Symbolic gradient of a layout-1-sized constraint system."""
    def expressions():
        m = Model("grad")
        m.var("T", 0, 1e5)
        n_vars = [m.integer_var(f"n{i}", 1, 4096) for i in range(4)]
        return ([27380.0 / n + 1e-3 * n**1.5 + 43.0 for n in n_vars],), {}

    def differentiate(exprs):
        out = []
        for e in exprs:
            for v in ("n0", "n1", "n2", "n3"):
                out.append(e.diff(v))
        return out

    grads = benchmark.pedantic(differentiate, setup=expressions, rounds=500, iterations=1)
    assert len(grads) == 16
