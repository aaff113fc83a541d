"""Tests for the Table I layout formulations."""

import pytest

from repro.cesm.grids import one_degree
from repro.cesm.layouts import (
    Layout,
    allocation_from_solution,
    direct_layout,
    footprint,
    formulate_layout,
    layout_total_time,
)
from repro.core.spec import Allocation
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.solution import Solution, Status
from repro.perf.model import PerformanceModel

#: Small, exactly-known models for fast layout solves.
MODELS = {
    "lnd": PerformanceModel(a=100.0, d=1.0),
    "ice": PerformanceModel(a=400.0, d=2.0),
    "atm": PerformanceModel(a=2000.0, d=10.0),
    "ocn": PerformanceModel(a=600.0, d=8.0),
}

TIMES = {"ice": 5.0, "lnd": 3.0, "atm": 20.0, "ocn": 24.0}


def test_layout_total_time_semantics():
    assert layout_total_time(Layout.HYBRID, TIMES) == 25.0  # max(5+20, 24)
    assert layout_total_time(Layout.SEQUENTIAL_GROUP, TIMES) == 28.0
    assert layout_total_time(Layout.FULLY_SEQUENTIAL, TIMES) == 52.0


def test_hybrid_dominates_sequential():
    """Layout 1 <= layout 2 <= layout 3 for any fixed times (Fig. 4 shape)."""
    t1 = layout_total_time(Layout.HYBRID, TIMES)
    t2 = layout_total_time(Layout.SEQUENTIAL_GROUP, TIMES)
    t3 = layout_total_time(Layout.FULLY_SEQUENTIAL, TIMES)
    assert t1 <= t2 <= t3


def _solve(layout, total=64, tsync=None):
    cfg = one_degree()
    problem = formulate_layout(MODELS, total, cfg, layout=layout, tsync=tsync)
    return problem, solve_minlp_oa(problem).require_ok()


def test_layout1_constraint_structure():
    cfg = one_degree()
    p = formulate_layout(MODELS, 64, cfg, layout=Layout.HYBRID)
    names = {c.name for c in p.constraints}
    assert {"icelnd_ge_ice", "icelnd_ge_lnd", "makespan_atm_side",
            "makespan_ocn_side", "nodes_atm_ocn", "nodes_ice_lnd"} <= names
    # Ocean's even-count sweet-spot set becomes SOS1; at 64 nodes the atm set
    # trims to the contiguous run [1, 64] and needs no binaries at all.
    sos_names = {s.name for s in p.sos1_sets}
    assert "sos_ocn" in sos_names and "sos_atm" not in sos_names


def test_layout1_atm_sos_appears_on_big_machine():
    cfg = one_degree()
    p = formulate_layout(MODELS, 2048, cfg, layout=Layout.HYBRID)
    # 2048 >= 1664, so A = {1..1638} u {1664} has two runs -> SOS1 + binaries.
    assert "sos_atm" in {s.name for s in p.sos1_sets}
    assert "z_atm[0]" in p.variable_names and "z_atm[1]" in p.variable_names


def test_layout1_solution_is_feasible_and_consistent():
    problem, sol = _solve(Layout.HYBRID)
    alloc = allocation_from_solution(sol)
    assert alloc["atm"] + alloc["ocn"] <= 64
    assert alloc["ice"] + alloc["lnd"] <= alloc["atm"]
    assert alloc["ocn"] % 2 == 0 or alloc["ocn"] == 768  # in O
    # Objective equals the layout makespan at the model-predicted times.
    times = {c: MODELS[c].time(alloc[c]) for c in MODELS}
    assert sol.objective == pytest.approx(
        layout_total_time(Layout.HYBRID, times), rel=1e-4
    )


def test_layout2_solution_semantics():
    problem, sol = _solve(Layout.SEQUENTIAL_GROUP)
    alloc = allocation_from_solution(sol)
    for comp in ("ice", "lnd", "atm"):
        assert alloc[comp] + alloc["ocn"] <= 64
    times = {c: MODELS[c].time(alloc[c]) for c in MODELS}
    assert sol.objective == pytest.approx(
        layout_total_time(Layout.SEQUENTIAL_GROUP, times), rel=1e-4
    )


def test_layout3_solution_semantics():
    problem, sol = _solve(Layout.FULLY_SEQUENTIAL)
    alloc = allocation_from_solution(sol)
    times = {c: MODELS[c].time(alloc[c]) for c in MODELS}
    assert sol.objective == pytest.approx(
        layout_total_time(Layout.FULLY_SEQUENTIAL, times), rel=1e-4
    )


def test_predicted_layout_ordering():
    """Optimal layout-1 time <= layout-2 <= layout-3 at equal machine size."""
    totals = {}
    for layout in Layout:
        _, sol = _solve(layout)
        totals[layout] = sol.objective
    assert totals[Layout.HYBRID] <= totals[Layout.SEQUENTIAL_GROUP] + 1e-6
    assert totals[Layout.SEQUENTIAL_GROUP] <= totals[Layout.FULLY_SEQUENTIAL] + 1e-6


def test_tsync_constrains_ice_lnd_gap():
    """Tsync is nonconvex (difference of convex T's), so the exact layout
    scan answers it; the realized gap must respect the bound, and NLP-based
    branch-and-bound, a local method here, finds nothing better."""
    from repro.minlp.nlpbb import solve_minlp_nlpbb

    _, free = _solve(Layout.HYBRID, tsync=None)
    cfg = one_degree()
    a, tight = direct_layout(MODELS, 64, cfg, layout=Layout.HYBRID, tsync=0.5)
    ti = MODELS["ice"].time(a["ice"])
    tl = MODELS["lnd"].time(a["lnd"])
    assert abs(ti - tl) <= 0.5
    # Additional synchronization can only hurt (§III-A).
    assert tight >= free.objective - 1e-6
    problem = formulate_layout(MODELS, 64, cfg, layout=Layout.HYBRID, tsync=0.5)
    local = solve_minlp_nlpbb(problem).require_ok()
    assert local.objective >= tight - 1e-6


def test_tsync_validation():
    with pytest.raises(ValueError, match="tsync"):
        formulate_layout(MODELS, 64, one_degree(), tsync=-1.0)


def test_missing_model_rejected():
    with pytest.raises(ValueError, match="missing"):
        formulate_layout({"atm": MODELS["atm"]}, 64, one_degree())


def test_tiny_machine_rejected():
    with pytest.raises(ValueError, match="total_nodes"):
        formulate_layout(MODELS, 1, one_degree())


def test_allocation_from_solution_requires_all_vars():
    sol = Solution(Status.OPTIMAL, values={"n_atm": 3.0})
    with pytest.raises(KeyError):
        allocation_from_solution(sol)


def test_footprint_per_layout():
    alloc = Allocation({"lnd": 3, "ice": 5, "atm": 10, "ocn": 6})
    assert footprint(Layout.HYBRID, alloc, 64) == 16
    assert footprint(Layout.SEQUENTIAL_GROUP, alloc, 64) == 16
    assert footprint(Layout.FULLY_SEQUENTIAL, alloc, 64) == 10
