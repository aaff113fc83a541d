"""Tests for the allocation-model builder."""

import pytest

from repro.core.builder import AllocationModelBuilder, DiscreteNodeSet
from repro.core.objectives import Objective
from tests.minlp.brute_reference import solve_brute_force
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.problem import Domain
from repro.perf.model import PerformanceModel

M1 = PerformanceModel(a=100.0, d=2.0)
M2 = PerformanceModel(a=60.0, d=1.0)


def test_total_nodes_validation():
    with pytest.raises(ValueError):
        AllocationModelBuilder("x", 0)


def test_plain_integer_component():
    b = AllocationModelBuilder("x", 16)
    b.add_component("a", M1)
    p = b.model.build()
    var = p.variable("n_a")
    assert var.domain is Domain.INTEGER
    assert var.lb == 1.0 and var.ub == 16.0


def test_duplicate_component_rejected():
    b = AllocationModelBuilder("x", 16)
    b.add_component("a", M1)
    with pytest.raises(ValueError, match="duplicate"):
        b.add_component("a", M2)


def test_min_max_nodes_respected():
    b = AllocationModelBuilder("x", 64)
    b.add_component("a", M1, min_nodes=4, max_nodes=32)
    var = b.model.build().variable("n_a")
    assert var.lb == 4.0 and var.ub == 32.0


def test_contiguous_allowed_set_needs_no_binaries():
    b = AllocationModelBuilder("x", 64)
    b.add_component("a", M1, allowed=DiscreteNodeSet.contiguous(2, 20))
    p = b.model.build()
    assert p.num_variables == 1
    assert not p.sos1_sets


def test_gappy_allowed_set_builds_sos():
    b = AllocationModelBuilder("x", 64)
    b.add_component("a", M1, allowed=DiscreteNodeSet((2, 4, 8, 16)))
    p = b.model.build()
    assert "sos_a" in {s.name for s in p.sos1_sets}
    assert sum(1 for v in p.variables if v.name.startswith("z_a")) == 4


def test_allowed_set_trimmed_by_machine():
    b = AllocationModelBuilder("x", 10)
    b.add_component("a", M1, allowed=DiscreteNodeSet((2, 4, 8, 16, 32)))
    p = b.model.build()
    # 16 and 32 exceed the machine; 3 usable values remain.
    assert sum(1 for v in p.variables if v.name.startswith("z_a")) == 3
    assert p.variable("n_a").ub == 8.0


def test_allowed_set_empty_after_trim_rejected():
    b = AllocationModelBuilder("x", 4)
    with pytest.raises(ValueError, match="no admissible"):
        b.add_component("a", M1, allowed=DiscreteNodeSet((8, 16)))


def test_sos_set_enforced_in_solve():
    b = AllocationModelBuilder("x", 64)
    b.add_component("a", M1, allowed=DiscreteNodeSet((2, 5, 11, 23)))
    b.limit_total_nodes()
    b.set_objective(Objective.MIN_MAX)
    sol = solve_minlp_oa(b.build()).require_ok()
    assert round(sol.values["n_a"]) in (2, 5, 11, 23)
    # More nodes help a decreasing curve: the largest admissible value wins.
    assert round(sol.values["n_a"]) == 23


def test_solution_matches_brute_force_on_sos_model():
    b = AllocationModelBuilder("x", 24)
    b.add_component("a", M1, allowed=DiscreteNodeSet((2, 6, 14)))
    b.add_component("b", M2)
    b.limit_total_nodes()
    b.set_objective(Objective.MIN_MAX)
    p = b.build()
    assert solve_minlp_oa(p).require_ok().objective == pytest.approx(
        solve_brute_force(p).objective, rel=1e-5
    )


def test_exact_budget_constraint():
    b = AllocationModelBuilder("x", 12)
    b.add_component("a", M1)
    b.add_component("b", M2)
    b.limit_total_nodes(exact=True)
    b.set_objective(Objective.MIN_MAX)
    sol = solve_minlp_oa(b.build()).require_ok()
    assert round(sol.values["n_a"] + sol.values["n_b"]) == 12


def test_limit_total_nodes_requires_components():
    b = AllocationModelBuilder("x", 8)
    with pytest.raises(ValueError, match="no components"):
        b.limit_total_nodes()


def test_objective_installed_once():
    b = AllocationModelBuilder("x", 8)
    b.add_component("a", M1)
    b.set_objective()
    with pytest.raises(RuntimeError):
        b.set_objective()


def test_time_expr_and_views():
    b = AllocationModelBuilder("x", 8)
    b.add_component("a", M1)
    assert b.components == ("a",)
    assert b.perf_model("a") is M1
    e = b.time_expr("a")
    assert e.evaluate({"n_a": 4.0}) == pytest.approx(M1.time(4))
    assert b.time_upper_bound() >= M1.time(1)


# -- the epigraph bound -------------------------------------------------------

#: Five components at 4096 nodes; ``c0``'s floor of 385 sits far past its
#: sweet spot (n* = 19.6), where T_c0(385) = 6525.8 s.  Bounding every
#: epigraph row by 2 max_j T_j(1) + 1 = 5404 s, as the builder once did, made
#: OA answer this feasible request "NLP relaxation infeasible" under both
#: min-max and min-sum.
FAR_FLOOR = {
    "c0": (PerformanceModel(a=2348.387, b=1.02707, c=1.47074, d=1.32348), 385),
    "c1": (PerformanceModel(a=2700.0, b=0.0, c=1.0, d=1.5), 1),
    "c2": (PerformanceModel(a=900.0, b=0.02, c=1.2, d=0.5), 1),
    "c3": (PerformanceModel(a=300.0, b=0.0, c=1.0, d=2.0), 1),
    "c4": (PerformanceModel(a=1500.0, b=0.004, c=1.35, d=1.0), 1),
}


@pytest.mark.parametrize("objective", [Objective.MIN_MAX, Objective.MIN_SUM])
def test_a_floor_past_the_sweet_spot_stays_feasible(objective):
    from repro.core.greedy import direct_allocation

    b = AllocationModelBuilder("far-floor", 4096)
    for name, (model, floor) in FAR_FLOOR.items():
        b.add_component(name, model, min_nodes=floor)
    b.limit_total_nodes()
    b.set_objective(objective)
    assert b.time_upper_bound() > FAR_FLOOR["c0"][0].time(385)
    sol = solve_minlp_oa(b.build())
    assert sol.status.value == "optimal", sol.message
    models = {name: model for name, (model, _) in FAR_FLOOR.items()}
    _, exact = direct_allocation(
        objective, models, 4096,
        min_nodes={name: floor for name, (_, floor) in FAR_FLOOR.items()},
    )
    assert sol.objective == pytest.approx(exact, rel=1e-9)


def test_the_bound_covers_each_curve_over_its_own_range():
    # Past the sweet spot the cap is the curve's highest point.
    rising = PerformanceModel(a=10.0, b=1.0, c=1.5, d=0.0)
    b = AllocationModelBuilder("x", 64)
    b.add_component("a", rising, max_nodes=40)
    b.add_component("b", M1, allowed=DiscreteNodeSet.even_range(2, 30))
    assert b.time_upper_bound() == 2.0 * rising.time(40) + 1.0


def test_the_bound_is_unchanged_on_the_pipeline_blocks(monkeypatch):
    """The fix never tightens the old ``2 max_j T_j(1) + 1``, so the Table
    III and FMO-ladder pipelines (fitted curves, the ledger's own blocks)
    build exactly the problems they built before."""
    import importlib.util
    import pathlib
    import sys

    from repro.core.hslb import HSLBOptimizer

    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/e2e/catalogue.py"
    spec = importlib.util.spec_from_file_location("e2e_catalogue", path)
    catalogue = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, catalogue)  # for its dataclasses
    spec.loader.exec_module(catalogue)

    bound = AllocationModelBuilder.time_upper_bound
    seen = []

    def recorded(self):
        old = 2.0 * max(float(m.time(1)) for m in self._models.values()) + 1.0
        seen.append((old, bound(self)))
        return seen[-1][1]

    monkeypatch.setattr(AllocationModelBuilder, "time_upper_bound", recorded)
    for block in catalogue.cesm_blocks() + catalogue.fmo_blocks():
        opt = HSLBOptimizer(block.make_app())
        opt.run(block.campaign, block.total_nodes, block.plan_rng(), execute=False)
    assert len(seen) == 9
    assert all(old == new for old, new in seen), seen
