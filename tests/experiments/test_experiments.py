"""Shape tests for the experiment runners (the paper's claims as asserts).

These are the library's reproduction contract: each test pins the
qualitative result the corresponding table/figure reports.  Absolute
seconds are synthetic; who-wins and by-roughly-what-factor are asserted.
"""

import pytest

from repro.cesm.layouts import Layout
from repro.core.objectives import Objective
from repro.experiments.ablations import (
    run_objective_ablation,
    run_tsync_ablation,
)
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig4 import run_fig4
from repro.experiments.fmo_experiments import (
    run_fmo_comparison,
    run_fmo_pipeline,
    run_fmo_speedup,
)
from repro.experiments.paper_data import TABLE3
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.table3 import manual_baseline_for, run_table3_block


def test_registry_complete():
    expected = {
        "table3-1deg-128",
        "table3-1deg-2048",
        "table3-eighth-8192",
        "table3-eighth-32768",
        "table3-eighth-8192-freeocn",
        "table3-eighth-32768-freeocn",
        "fig2",
        "fig3",
        "fig4",
        "ablation-objectives",
        "ablation-sos",
        "ablation-tsync",
        "solver-scaling",
        "fmo-comparison",
        "fmo-pipeline",
        "fmo-speedup",
    }
    assert expected <= set(EXPERIMENTS)
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("table9")


def test_paper_data_consistency():
    """Sanity: the transcribed Table III blocks are internally coherent."""
    for key, block in TABLE3.items():
        assert block.hslb_pred_total >= max(block.hslb_pred_times.values()) - 1e-6
        assert block.hslb_actual_total >= max(block.hslb_actual_times.values()) - 1e-6
        if block.manual_total is not None:
            assert block.manual_total >= max(block.manual_times.values()) - 1e-6
        assert manual_baseline_for(block) is not None


def test_table3_1deg_128_shape():
    r = run_table3_block("1deg-128")
    paper = r.paper
    # Totals land near the paper's (synthetic machine: +-10%).
    assert r.hslb.predicted_total == pytest.approx(paper.hslb_pred_total, rel=0.10)
    assert r.hslb.actual_total == pytest.approx(paper.hslb_actual_total, rel=0.10)
    assert r.manual_total == pytest.approx(paper.manual_total, rel=0.10)
    # HSLB at least matches the expert within noise.
    assert r.hslb.actual_total <= r.manual_total * 1.05
    # Rendering includes all components and the paper columns.
    out = r.render()
    assert "paper pred s" in out and "ocn" in out


def test_table3_eighth_32768_constrained_shape():
    r = run_table3_block("eighth-32768")
    paper = r.paper
    assert r.hslb.allocation["ocn"] == 19460  # the constrained optimum
    assert r.hslb.predicted_total == pytest.approx(paper.hslb_pred_total, rel=0.10)
    assert r.hslb.actual_total == pytest.approx(paper.hslb_actual_total, rel=0.10)


def test_table3_unconstrained_headline():
    """§IV-B: removing the ocean constraint buys roughly 25% at 32768."""
    con = run_table3_block("eighth-32768")
    unc = run_table3_block("eighth-32768-freeocn")
    gain = 1.0 - unc.hslb.actual_total / con.hslb.actual_total
    assert 0.10 <= gain <= 0.45  # paper: ~25% actual
    pred_gain = 1.0 - unc.hslb.predicted_total / con.hslb.predicted_total
    assert pred_gain >= 0.15  # paper: ~29-40% predicted


def test_fig2_r_squared_close_to_one():
    r = run_fig2()
    assert r.min_r_squared() > 0.99  # "R^2 was very close to 1"
    out = r.render()
    assert "R^2" in out
    for comp in ("lnd", "ice", "atm", "ocn"):
        assert comp in out
    # Curves must be decreasing overall (scalable code).
    for s in r.series.values():
        assert s.curve_seconds[0] > s.curve_seconds[-1]


def test_fig4_layout_ordering_and_r2():
    r = run_fig4()
    # Layout 1 & 2 similar; layout 3 worst (the paper's Figure 4 story).
    for i in range(len(r.node_counts)):
        t1 = r.predicted[Layout.HYBRID][i]
        t2 = r.predicted[Layout.SEQUENTIAL_GROUP][i]
        t3 = r.predicted[Layout.FULLY_SEQUENTIAL][i]
        assert t1 <= t2 * 1.02
        assert t3 > t2  # strictly worse at every size
        assert abs(t2 - t1) / t1 < 0.25  # "1 and 2 performed similar"
    assert r.r_squared_layout1() > 0.98  # paper: R^2 = 1.0
    # Scaling: more nodes, faster (monotone within noise).
    pred1 = r.predicted[Layout.HYBRID]
    assert all(pred1[i + 1] < pred1[i] for i in range(len(pred1) - 1))


def test_objective_ablation_minmax_wins():
    r = run_objective_ablation(n_fragments=8, total_nodes=128)
    mm = r.makespans[Objective.MIN_MAX]
    # §III-D: "min-max performed slightly better than max-min" — better, and
    # only slightly (a max-min that leaves its ties unbroken reads 721.6 s).
    assert mm <= r.makespans[Objective.MAX_MIN] <= 1.02 * mm
    assert mm <= r.makespans[Objective.MIN_SUM] * 1.02
    out = r.render()
    assert "min-max" in out


def test_tsync_ablation_monotone():
    r = run_tsync_ablation()
    assert r.monotone_nonimproving()
    # A very tight tolerance must cost something vs unconstrained.
    assert r.predicted_totals[-1] >= r.predicted_totals[0]
    assert "Tsync" in r.render()


def test_fmo_comparison_hslb_wins():
    r = run_fmo_comparison()
    assert r.hslb_always_best()
    # On diverse tasks the uniform baseline is far behind at small N.
    assert r.makespans["uniform"][0] > r.makespans["hslb"][0] * 1.5
    assert "hslb" in r.render()


def test_fmo_pipeline_prediction_quality():
    r = run_fmo_pipeline()
    assert r.prediction_error < 0.15
    assert r.min_r_squared > 0.99
    assert "predicted makespan" in r.render()


def test_fmo_speedup_monotone():
    r = run_fmo_speedup(node_counts=(16, 32, 64, 128, 256))
    assert r.monotone()
    s = r.speedups()
    assert s[0] == 1.0
    assert s[-1] > 4.0  # real scaling, even with Amdahl floors
    assert "speedup" in r.render()
