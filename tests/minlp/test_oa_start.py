"""OA started from a discrete assignment (``solve_minlp_oa(start=)``).

A start only changes where the tree begins: its fixed-integer subproblem
seeds the master and is the first incumbent.  So on keyed layout problems:

* a start at the optimum comes back unchanged, with nothing better found;
* a feasible, suboptimal start still ends at the cold optimum, and the
  pipeline records the gap (``SolverProvenance.direct_gap``) and books the
  miss;
* a start that violates a row or a bound is rejected and the solve is the
  cold one, count for count;
* without a start the tree is the one OA built before it took starts,
  pinned on ground-truth problems (the path ablations A2/A4 and
  ``make bench-check`` take).
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import subprocess
import sys
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cesm.app import CESMApplication
from repro.cesm.components import COMPONENTS
from repro.cesm.grids import one_degree
from repro.cesm.layouts import Layout, formulate_layout, layout_total_time
from repro.core.builder import AllocationModelBuilder
from repro.core.hslb import DIRECT_GAP_TOL, HSLBOptimizer
from repro.core.spec import Allocation
from tests.minlp.brute_reference import solve_brute_force
from repro.minlp.oa import solve_minlp_oa
from repro.obs.metrics import REGISTRY
from repro.obs.trace import get_tracer
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng, keyed_rng
from tests.cesm.test_direct_layout import _keyed_spec


def _assignment(config, total: int, alloc: dict[str, int]) -> dict[str, float]:
    """Node counts plus the run binaries ``formulate_layout`` declares."""
    start = {f"n_{c}": float(n) for c, n in alloc.items()}
    for comp, count in alloc.items():
        if config.allowed(comp) is not None:
            start.update(
                AllocationModelBuilder.run_binaries(comp, config.allowed(comp), total, count)
            )
    return start


def _admissible(config, total: int, layout: Layout):
    """Every allocation Table I admits on a tiny machine, by enumeration."""
    def counts(comp):
        allowed = config.allowed(comp)
        if allowed is not None:
            return [v for v in allowed.values if v <= total]
        return range(config.component_min_nodes(comp), total + 1)

    for combo in itertools.product(*(counts(c) for c in COMPONENTS)):
        n = dict(zip(COMPONENTS, combo))
        if layout is Layout.HYBRID:
            ok = n["ice"] + n["lnd"] <= n["atm"] and n["atm"] + n["ocn"] <= total
        elif layout is Layout.SEQUENTIAL_GROUP:
            ok = max(n["ice"], n["lnd"], n["atm"]) + n["ocn"] <= total
        else:
            ok = True
        if ok:
            yield n


def _integers(problem, values) -> dict[str, float]:
    return {v.name: float(round(values[v.name])) for v in problem.discrete_variables()}


def _start_tag(tracer) -> str:
    return tracer.find("minlp.oa").tags.get("start")


@contextmanager
def _traced():
    """The ``tracer`` fixture for one hypothesis example."""
    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        yield tracer
    finally:
        tracer.disable()
        tracer.reset()


@settings(max_examples=30, deadline=None)
@given(key=st.integers(0, 10_000), layout=st.sampled_from(list(Layout)),
       free_ocean=st.booleans())
def test_start_at_the_optimum_returns_it(key, layout, free_ocean):
    models, total, config, _ = _keyed_spec(key, layout, free_ocean, False)
    problem = formulate_layout(models, total, config, layout=layout)
    cold = solve_minlp_oa(problem)
    if not cold.status.is_ok:
        return
    start = _integers(problem, cold.values)
    with _traced() as tracer:
        seeded = solve_minlp_oa(problem, start=start).require_ok()
        assert _start_tag(tracer) == "accepted"
        assert "root_nlp_ms" not in tracer.find("minlp.oa").tags
    assert _integers(problem, seeded.values) == start
    assert seeded.objective == pytest.approx(cold.objective, rel=1e-9)
    assert seeded.stats.incumbent_updates == 0  # nothing better exists


@settings(max_examples=30, deadline=None)
@given(key=st.integers(0, 10_000), layout=st.sampled_from(list(Layout)),
       free_ocean=st.booleans(), pick=st.integers(0, 10**6))
def test_suboptimal_start_still_reaches_the_optimum(key, layout, free_ocean, pick):
    models, total, config, _ = _keyed_spec(key, layout, free_ocean, False)
    problem = formulate_layout(models, total, config, layout=layout)
    feasible = list(_admissible(config, total, layout))
    if not feasible:
        return
    alloc = feasible[pick % len(feasible)]
    priced = layout_total_time(
        layout, {c: float(models[c].time(alloc[c])) for c in COMPONENTS}
    )
    with _traced() as tracer:
        seeded = solve_minlp_oa(problem, start=_assignment(config, total, alloc))
        assert _start_tag(tracer) == "accepted"
    brute = solve_brute_force(problem).require_ok()
    assert seeded.require_ok().objective == pytest.approx(brute.objective, rel=1e-9)
    assert seeded.objective <= priced * (1 + 1e-12)


def test_violating_start_falls_back_to_the_cold_path(tracer):
    config = one_degree()
    models = {c: truth.model for c, truth in config.ground_truth.items()}
    problem = formulate_layout(models, 512, config)
    cold = solve_minlp_oa(problem).require_ok()
    best = {c: int(round(cold.values[f"n_{c}"])) for c in COMPONENTS}
    broken = [
        {**best, "ice": best["atm"]},  # ice + lnd > atm: a row
        {**best, "atm": 600},  # atm + ocn > 512: a row
        {**best, "lnd": 0},  # below the floor: a bound
    ]
    for alloc in broken:
        tracer.reset()
        again = solve_minlp_oa(problem, start=_assignment(config, 512, alloc))
        assert _start_tag(tracer) == "rejected"
        assert "root_nlp_ms" in tracer.find("minlp.oa").tags
        assert again.values == cold.values
        assert again.objective == cold.objective
        for field in ("nodes_explored", "nodes_pruned", "lp_solves",
                      "nlp_solves", "cuts_added", "incumbent_updates"):
            assert getattr(again.stats, field) == getattr(cold.stats, field), field
    with pytest.raises(ValueError, match="no value"):
        solve_minlp_oa(problem, start={"n_atm": 400.0})


#: Cold OA on ground-truth layout problems, as OA solved them before it took
#: starts, with one BLAS thread (the benchmark harness's setting):
#: (config, total, layout) -> (objective, nodes explored, pruned, LPs, NLPs,
#: cuts, incumbent updates, n_atm, n_ice, n_lnd, n_ocn).
_COLD = {
    ("1deg", 128, 1): (396.8805603189478, 5, 2, 5, 3, 16, 2, 106, 90, 16, 22),
    ("1deg", 3000, 1): (77.63828901901655, 9, 6, 9, 5, 15, 4, 1664, 1561, 103, 232),
    ("1deg", 512, 2): (141.0956045821948, 4, 2, 4, 3, 9, 2, 432, 432, 432, 80),
    ("eighth", 40960, 1): (1129.3875752776507, 12, 6, 12, 5, 20, 4, 21500, 21189, 311, 19460),
    ("eighth", 16384, 3): (3007.503798403948, 1, 0, 1, 2, 1, 1, 16384, 16384, 16384, 6124),
    ("eighth-freeocn", 8192, 1): (3210.614457831325, 9, 6, 9, 2, 12, 1, 5370, 5230, 140, 2822),
}

#: The cold solves, run in a child process.  A multi-threaded BLAS sums in a
#: different order, which moves the root relaxation's last bits and with
#: them which of two tied nodes the tree takes; one thread makes the tree a
#: function of the problem alone, as it is in ``benchmarks/e2e/run.py``.
_COLD_SCRIPT = """
import json, sys
from repro.cesm.grids import eighth_degree, one_degree
from repro.cesm.layouts import Layout, formulate_layout
from repro.minlp.oa import solve_minlp_oa
out = []
for name, total, layout in json.loads(sys.argv[1]):
    config = {"1deg": one_degree(), "eighth": eighth_degree(),
              "eighth-freeocn": eighth_degree(constrained_ocean=False)}[name]
    models = {c: truth.model for c, truth in config.ground_truth.items()}
    sol = solve_minlp_oa(formulate_layout(models, total, config, layout=Layout(layout)))
    s = sol.stats
    out.append((sol.objective, s.nodes_explored, s.nodes_pruned, s.lp_solves,
                s.nlp_solves, s.cuts_added, s.incumbent_updates,
                *(int(round(sol.values[f"n_{c}"])) for c in ("atm", "ice", "lnd", "ocn"))))
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def cold_trees():
    repo = pathlib.Path(__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(repo / "src"),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", _COLD_SCRIPT, json.dumps(list(_COLD))],
        capture_output=True, text=True, timeout=300, cwd=repo, env=env,
    )
    assert done.returncode == 0, done.stderr
    return dict(zip(_COLD, map(tuple, json.loads(done.stdout.splitlines()[-1]))))


@pytest.mark.parametrize("case", list(_COLD), ids=["-".join(map(str, c)) for c in _COLD])
def test_without_a_start_the_tree_is_unchanged(case, cold_trees):
    assert cold_trees[case] == _COLD[case]


class _StartedCESM(CESMApplication):
    """CESM whose direct algorithm answers a fixed allocation."""

    def __init__(self, config, alloc) -> None:
        super().__init__(config)
        self.alloc = alloc

    def direct_start(self, models, total_nodes):
        return _assignment(self.config, total_nodes, self.alloc)


def test_pipeline_records_the_gap_of_a_suboptimal_start(tracer):
    config = one_degree()
    models = {c: truth.model for c, truth in config.ground_truth.items()}
    opt = HSLBOptimizer(CESMApplication(config))
    alloc, optimum = opt.solve(models, 512)
    assert abs(opt.last_provenance.direct_gap) <= DIRECT_GAP_TOL
    misses = REGISTRY.counter("hslb_direct_misses_total")
    before = misses.value()

    worse = {**alloc.nodes, "ice": 1, "lnd": 1}
    opt = HSLBOptimizer(_StartedCESM(config, worse))
    tracer.reset()
    got, solution = opt.solve(models, 512)
    priced = opt.app.predicted_total(models, Allocation(worse))
    assert solution.objective == pytest.approx(optimum.objective, rel=1e-9)
    assert got == alloc
    gap = opt.last_provenance.direct_gap
    assert gap == pytest.approx((priced - solution.objective) / solution.objective)
    assert gap > DIRECT_GAP_TOL
    assert "direct gap" in opt.last_provenance.summary()
    assert misses.value() == before + 1
    events = [e for s, _ in tracer.walk() for e in s.events
              if e["name"] == "solver.direct_miss"]
    assert [e["gap"] for e in events] == [gap]


def test_fmo_pipeline_has_no_start(tracer):
    """FMO has no direct start yet: its OA solves cold, uncertified."""
    from repro.fmo.app import FMOApplication
    from repro.fmo.molecules import protein_like

    app = FMOApplication(protein_like(8, keyed_rng(5, "oa-start-fmo")))
    plan = HSLBOptimizer(app).run((1, 2, 4, 8, 16), 64, default_rng(3), execute=False)
    assert plan.provenance.direct_gap is None
    assert "start" not in tracer.find("minlp.oa").tags


def test_start_helper_values_every_run(tracer):
    """A start built for a count in the set's last run still fixes one run."""
    config = one_degree()
    binaries = AllocationModelBuilder.run_binaries("atm", config.atm_allowed, 2048, 1664)
    assert binaries == {"z_atm[0]": 0.0, "z_atm[1]": 1.0}
    assert AllocationModelBuilder.run_binaries("atm", config.atm_allowed, 64, 40) == {}
    models = {"lnd": PerformanceModel(a=100.0, d=1.0),
              "ice": PerformanceModel(a=400.0, d=2.0),
              "atm": PerformanceModel(a=2000.0, d=10.0),
              "ocn": PerformanceModel(a=600.0, d=8.0)}
    problem = formulate_layout(models, 2048, config)
    start = CESMApplication(config).direct_start(models, 2048)
    seeded = solve_minlp_oa(problem, start=start).require_ok()
    assert _start_tag(tracer) == "accepted"
    assert seeded.objective == pytest.approx(solve_minlp_oa(problem).objective, rel=1e-9)
