"""Tests for the §IV-C prediction applications."""

from functools import partial

import pytest

from repro.cesm.app import CESMApplication
from repro.cesm.grids import one_degree
from repro.cesm.layouts import Layout, direct_layout, layout_total_time
from repro.cesm.machines import EXASCALE_SKETCH
from repro.core.greedy import greedy_minmax_allocation
from repro.core.hslb import HSLBOptimizer
from repro.core.predictor import (
    ScalingSweep,
    compare_layouts,
    component_swap_effect,
    optimal_job_size,
    sweep_machine_sizes,
)
from repro.experiments.paper_data import BENCHMARK_CAMPAIGN
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng

MODELS = {
    "lnd": PerformanceModel(a=1483.0, d=2.1),
    "ice": PerformanceModel(a=7600.0, d=11.0),
    "atm": PerformanceModel(a=27380.0, d=43.0),
    "ocn": PerformanceModel(a=7550.0, d=45.0),
}

NODE_COUNTS = (128, 256, 512, 1024, 2048)


def _layout_direct(layout):
    return partial(direct_layout, config=one_degree(), layout=layout)


@pytest.fixture(scope="module")
def hybrid_sweep():
    return sweep_machine_sizes(MODELS, _layout_direct(Layout.HYBRID), NODE_COUNTS)


def test_sweep_monotone_decreasing(hybrid_sweep):
    totals = hybrid_sweep.totals
    assert all(totals[i + 1] < totals[i] for i in range(len(totals) - 1))


def test_sweep_derived_metrics(hybrid_sweep):
    s = hybrid_sweep
    assert s.speedup()[0] == 1.0
    assert s.speedup()[-1] > 2.0
    eff = s.efficiency()
    assert eff[0] == pytest.approx(1.0)
    assert all(eff[i + 1] < eff[i] + 1e-9 for i in range(len(eff) - 1))
    assert "efficiency" in s.render()


def test_sweep_validation():
    with pytest.raises(ValueError, match="length"):
        ScalingSweep((1, 2), (1.0,))
    with pytest.raises(ValueError, match="two machine sizes"):
        ScalingSweep((1,), (1.0,))


def test_optimal_job_size_tradeoff(hybrid_sweep):
    rec = optimal_job_size(
        MODELS,
        _layout_direct(Layout.HYBRID),
        NODE_COUNTS,
        efficiency_floor=0.5,
    )
    # Cost-efficient size never exceeds the shortest-time size; both in sweep.
    assert rec.cost_efficient_nodes in NODE_COUNTS
    assert rec.shortest_time_nodes in NODE_COUNTS
    assert rec.cost_efficient_nodes <= rec.shortest_time_nodes
    # With Amdahl floors the shortest-time size is the biggest machine.
    assert rec.shortest_time_nodes == 2048
    assert "cost-efficient choice" in rec.render()


def test_optimal_job_size_floor_monotone():
    loose = optimal_job_size(
        MODELS, _layout_direct(Layout.HYBRID), NODE_COUNTS, efficiency_floor=0.3
    )
    strict = optimal_job_size(
        MODELS, _layout_direct(Layout.HYBRID), NODE_COUNTS, efficiency_floor=0.9
    )
    assert strict.cost_efficient_nodes <= loose.cost_efficient_nodes


def test_optimal_job_size_validation():
    with pytest.raises(ValueError, match="efficiency_floor"):
        optimal_job_size(
            MODELS, _layout_direct(Layout.HYBRID), NODE_COUNTS,
            efficiency_floor=0.0,
        )


def test_compare_layouts_ordering():
    sweeps = compare_layouts(
        MODELS,
        {
            "layout1": _layout_direct(Layout.HYBRID),
            "layout3": _layout_direct(Layout.FULLY_SEQUENTIAL),
        },
        (128, 512, 2048),
    )
    for i in range(3):
        assert sweeps["layout1"].totals[i] < sweeps["layout3"].totals[i]


def test_component_swap_effect():
    # A rewritten ocean model, 2x more scalable work-wise.
    faster_ocn = PerformanceModel(a=7550.0 / 2, d=20.0)
    base, swapped = component_swap_effect(
        MODELS,
        _layout_direct(Layout.HYBRID),
        (128, 512),
        replace={"ocn": faster_ocn},
    )
    # A faster ocean can only help (it is on the concurrent side).
    assert all(s <= b + 1e-9 for s, b in zip(swapped.totals, base.totals))
    with pytest.raises(ValueError, match="unknown components"):
        component_swap_effect(
            MODELS,
            _layout_direct(Layout.HYBRID),
            (128,),
            replace={"warp": faster_ocn},
        )


def test_any_exact_direct_algorithm_drives_a_sweep():
    """The predictor reads ``(allocation, objective)``: the min-max greedy
    has that shape too."""
    sweep = sweep_machine_sizes(MODELS, greedy_minmax_allocation, NODE_COUNTS)
    assert sweep.totals == tuple(
        greedy_minmax_allocation(MODELS, n)[1] for n in NODE_COUNTS
    )


def test_an_infeasible_size_is_named():
    def none_below_256(models, total_nodes):
        return None if total_nodes < 256 else (None, 1.0)

    with pytest.raises(ValueError, match="on 128 nodes"):
        sweep_machine_sizes(MODELS, none_below_256, NODE_COUNTS)


@pytest.fixture(scope="module")
def exascale_models():
    """P3's curves: the 1° fits of seed 2014 moved onto the exascale sketch."""
    rng = default_rng(2014)
    opt = HSLBOptimizer(CESMApplication(one_degree()))
    fits = opt.fit(opt.gather(BENCHMARK_CAMPAIGN["1deg"], rng), rng)
    return EXASCALE_SKETCH.transform_all({n: f.model for n, f in fits.items()})


@pytest.mark.parametrize("layout", list(Layout), ids=lambda layout: layout.name)
def test_exascale_sweep_totals_are_the_exact_optimum(exascale_models, layout):
    """Every total of the P3 sweep through 4096 nodes is the scan's objective,
    and that objective is the layout makespan of the scan's own allocation.
    (A cold OA solve per size reported layout 1 at 4096 nodes at its epigraph
    value, 1.9e-8 below the price of its own allocation, and stopped layout 3
    4.1e-9 above the optimum, inside its gap.)"""
    counts = (128, 256, 512, 1024, 2048, 4096)
    direct = _layout_direct(layout)
    sweep = sweep_machine_sizes(exascale_models, direct, counts)
    answers = [direct(exascale_models, n) for n in counts]
    assert sweep.totals == tuple(objective for _, objective in answers)
    for allocation, objective in answers:
        times = {
            name: float(exascale_models[name].time(allocation[name]))
            for name in allocation.components
        }
        assert objective == layout_total_time(layout, times)
