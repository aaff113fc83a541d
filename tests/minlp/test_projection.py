"""Relaxation projection: SOS1 selection variables eliminated inside solve_nlp.

Oracles: the full-space relaxation (``Problem.relaxed()`` carries no SOS1
sets, so it is never projected), outer approximation, and brute force over
the finite sweet-spot sets.
"""

import dataclasses

import pytest

from repro.cesm.app import CESMApplication
from repro.cesm.grids import one_degree
from repro.cesm.layouts import Layout, formulate_layout
from repro.core.builder import DiscreteNodeSet
from repro.experiments.table3 import TABLE3, config_for, run_table3_block
from repro.minlp.brute import solve_brute_force
from repro.minlp.modeling import Model
from repro.minlp.nlp import solve_nlp
from repro.minlp.nlpbb import solve_minlp_nlpbb
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.projection import project_sos1
from repro.minlp.solution import Status
from repro.perf.model import PerformanceModel
from repro.util.rng import keyed_rng

SEED = 1204

#: Set shapes: (name, members of 1..n as a function of the rng).
SHAPES = {
    "gaps": lambda rng, n: sorted(
        {1, *rng.choice(range(2, n + 1), size=n // 2, replace=False).tolist()}
    ),
    "singletons": lambda rng, n: list(range(1, n + 1, 2)),
    "one_run": lambda rng, n: list(range(1, n + 1)),
    "trimmed": lambda rng, n: [1, 2, n - 1, n + 2, n + 5],  # cap cuts the tail
}


def _instance(shape: str, encoding: str, layout: Layout):
    """A keyed-RNG layout model small enough for brute force."""
    rng = keyed_rng(SEED, shape, encoding, layout.name)
    total = int(rng.integers(5, 8))
    models = {
        comp: PerformanceModel(
            a=float(rng.uniform(20, 200)),
            b=float(rng.uniform(0.0, 0.3)),
            c=float(rng.uniform(1.0, 1.5)),
            d=float(rng.uniform(0.5, 4.0)),
        )
        for comp in ("lnd", "ice", "atm", "ocn")
    }
    config = dataclasses.replace(
        one_degree(),
        atm_allowed=DiscreteNodeSet(tuple(SHAPES[shape](rng, total))),
        ocean_allowed=DiscreteNodeSet(tuple(SHAPES[shape](rng, total))),
        min_nodes={},
    )
    return formulate_layout(
        models, total, config, layout=layout, sos_encoding=encoding
    )


@pytest.mark.parametrize("layout", list(Layout), ids=lambda l: l.name.lower())
@pytest.mark.parametrize("encoding", ["run", "value"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_projected_relaxation_matches_full_space_and_bounds_the_optimum(
    shape, encoding, layout
):
    problem = _instance(shape, encoding, layout)
    relaxed = problem.relaxed()
    # Every sweet-spot set the builder emits is eligible, in both encodings.
    eliminated = set(project_sos1(problem).members)
    assert eliminated == {m for sos in problem.sos1_sets for m in sos.members}

    projected = solve_nlp(problem).require_ok()
    full = solve_nlp(relaxed).require_ok()
    assert projected.objective == pytest.approx(full.objective, rel=1e-6)

    # The lifted point is a complete, feasible point of the full relaxation.
    assert projected.values.keys() == set(problem.variable_names)
    for sos in problem.sos1_sets:
        assert sum(projected.values[m] for m in sos.members) == pytest.approx(1.0)
    assert relaxed.max_violation(projected.values) <= 1e-6

    oa = solve_minlp_oa(problem).require_ok()
    brute = solve_brute_force(problem).require_ok()
    assert oa.objective == pytest.approx(brute.objective, rel=1e-6)
    assert projected.objective <= oa.objective + 1e-6


@pytest.mark.parametrize("encoding", ["run", "value"])
def test_infeasible_budget_is_still_infeasible(encoding):
    # Both sets start at 4 nodes, the hybrid layout needs atm + ocn <= 6.
    config = dataclasses.replace(
        one_degree(),
        atm_allowed=DiscreteNodeSet((4, 6)),
        ocean_allowed=DiscreteNodeSet((4, 6)),
        min_nodes={},
    )
    models = {c: PerformanceModel(a=100.0, d=1.0) for c in ("lnd", "ice", "atm", "ocn")}
    problem = formulate_layout(models, 6, config, sos_encoding=encoding)
    assert project_sos1(problem).members  # the sets are eliminated, not skipped
    assert solve_nlp(problem).status is Status.INFEASIBLE
    assert solve_minlp_oa(problem).status is Status.INFEASIBLE


def test_problem_without_eligible_set_passes_through_untouched():
    m = Model()
    x = m.var("x", 0, 4)
    zs = [m.binary_var(f"z[{k}]") for k in range(3)]
    m.sos1(zs, weights=[1.0, 2.0, 3.0])  # no convexity row: not a selection
    m.add(x >= zs[0] + 2 * zs[1] + 3 * zs[2])
    m.minimize(x)
    problem = m.build()
    assert project_sos1(problem).problem is problem


def test_member_in_a_nonlinear_row_blocks_the_set():
    m = Model()
    x = m.var("x", 0, 4)
    zs = [m.binary_var(f"z[{k}]") for k in range(3)]
    m.add_equals(sum(zs), 1)
    m.sos1(zs, weights=[1.0, 2.0, 3.0])
    m.add(x >= zs[0] ** 2 + 2 * zs[1] + 3 * zs[2])
    m.minimize(x)
    problem = m.build()
    assert project_sos1(problem).problem is problem


def _nlp_spans(tracer):
    return [s for s, _ in tracer.walk() if s.name == "minlp.nlp"]


def _jointly_tight_model():
    """Two link rows whose joint image is a triangle, not the interval box."""
    m = Model()
    x = m.var("x", 0, 1)
    y = m.var("y", 0, 1)
    zs = [m.binary_var(f"z[{k}]") for k in range(3)]
    m.add_equals(sum(zs), 1)
    m.sos1(zs, weights=[0.0, 1.0, 2.0])
    m.add_equals(x - zs[1], 0)
    m.add_equals(y - zs[2], 0)
    m.maximize(x + y)
    return m.build()


def test_inexact_projection_falls_back_to_the_full_space_and_is_counted(tracer):
    problem = _jointly_tight_model()
    sol = solve_nlp(problem).require_ok()
    # The box would allow x = y = 1; the simplex only x + y <= 1.
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
    assert problem.relaxed().max_violation(sol.values) <= 1e-6
    assert sol.stats.nlp_solves == 2
    first, second = _nlp_spans(tracer)
    assert (first.tags["vars"], first.tags["eliminated"], first.tags["lifted"]) == (
        2, 3, False,
    )
    assert (second.tags["vars"], second.tags["eliminated"]) == (5, 0)


def test_constant_row_violated_for_every_member_is_infeasible():
    m = Model()
    x = m.var("x", 0, 1)
    zs = [m.binary_var(f"z[{k}]") for k in range(3)]
    m.add_equals(sum(zs), 1)
    m.sos1(zs, weights=[1.0, 2.0, 3.0])
    m.add(zs[0] + 2 * zs[1] + 3 * zs[2] >= 4)
    m.minimize(x)
    problem = m.build()
    assert project_sos1(problem) is None
    assert solve_nlp(problem).status is Status.INFEASIBLE
    assert solve_nlp(problem.relaxed()).status is Status.INFEASIBLE


def test_nlpbb_on_tsync_layout_keeps_its_objective():
    """SOS branching zeroes member bounds; the intervals must follow them.

    The objectives were recorded with the unprojected NLP layer.
    """
    models = {
        "lnd": PerformanceModel(a=100.0, d=1.0),
        "ice": PerformanceModel(a=400.0, d=2.0),
        "atm": PerformanceModel(a=2000.0, d=10.0),
        "ocn": PerformanceModel(a=600.0, d=8.0),
    }
    for total, tsync, encoding, recorded in (
        (64, 0.5, "run", 60.57264957264959),
        (64, 0.5, "value", 60.57264957257),
        (200, 0.25, "run", 26.75),
    ):
        problem = formulate_layout(
            models, total, one_degree(), tsync=tsync, sos_encoding=encoding
        )
        sol = solve_minlp_nlpbb(problem).require_ok()
        assert sol.objective == pytest.approx(recorded, rel=1e-9)
        assert problem.max_violation(sol.values) <= 1e-5


@pytest.mark.parametrize("key", list(TABLE3))
def test_no_table3_nlp_solve_sees_more_than_ten_variables(key, tracer):
    """The pipeline's OA starts at the direct scan and solves no root
    relaxation, so the spans checked are those of the cold OA solve of the
    block's formulated problem: the path ablations A2/A4 take."""
    result = run_table3_block(key)
    seeded = tracer.find("minlp.oa")
    assert seeded.tags["start"] == "accepted" and "root_nlp_ms" not in seeded.tags
    models = {name: fit.model for name, fit in result.hslb.fits.items()}
    problem = CESMApplication(config_for(TABLE3[key])).formulate(
        models, result.hslb.total_nodes
    )
    tracer.reset()
    cold = solve_minlp_oa(problem).require_ok()
    assert cold.objective == pytest.approx(result.hslb.predicted_total, rel=1e-9)
    spans = _nlp_spans(tracer)
    assert spans
    assert max(s.tags["vars"] for s in spans) <= 10
    if key == "1deg-2048":  # the ocean set's ~240 run binaries never reach scipy
        assert any(s.tags["eliminated"] > 200 and s.tags["lifted"] for s in spans)
    oa = tracer.find("minlp.oa")
    assert 0.0 < oa.tags["root_nlp_ms"] <= oa.duration * 1e3
