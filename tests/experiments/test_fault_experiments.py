"""Acceptance tests for the robustness/fault experiments.

Covers the headline guarantees: a zero-noise gather reproduces the
reference allocation exactly (R1), and the full pipeline completes
end-to-end under the ISSUE's fault recipe (10% failures plus one
mid-run crash) on both the CESM and FMO scenarios.
"""

from repro.experiments.faults import (
    run_fault_degradation,
    run_fault_pipeline,
)
from repro.experiments.robustness import run_noise_sweep


def test_r1_zero_noise_reproduces_reference_exactly():
    """With noise=0 the gathered timings are the ground truth, so the sweep's
    first point *is* the reference: regret must be exactly 0.0, not approx."""
    result = run_noise_sweep(noise_levels=(0.0,), total_nodes=64, seed=11)
    assert result.reference_makespan == result.true_makespans[0]
    assert result.regret() == [0.0]


def test_r1_noise_only_adds_regret():
    result = run_noise_sweep(noise_levels=(0.0, 0.10), total_nodes=64, seed=11)
    regret = result.regret()
    assert regret[0] == 0.0
    assert all(r >= 0.0 for r in regret)


def test_pipeline_completes_under_faults():
    """ISSUE acceptance: 10% failure rate + one mid-run crash, fixed seed —
    both scenarios finish end-to-end with a recorded solver tier."""
    result = run_fault_pipeline(fail_rate=0.10, straggler_rate=0.05, seed=2012)
    assert [row[0] for row in result.rows] == [
        "cesm-1deg-128",
        "fmo-protein-12-256",
    ]
    assert all(row[1] == "yes" for row in result.rows)  # completed
    assert all(tier in {"oa", "direct", "greedy"} for tier in result.tiers.values())
    assert all(row[4] > 0.0 for row in result.rows)  # finite makespan
    text = result.render()
    assert "cesm-1deg-128" in text and "fmo-protein-12-256" in text


def test_fault_pipeline_is_deterministic():
    a = run_fault_pipeline(seed=5)
    b = run_fault_pipeline(seed=5)
    assert a.rows == b.rows


def test_degradation_curve_orders_strategies():
    result = run_fault_degradation(
        n_fragments=24, n_groups=4, total_nodes=48, fractions=(0.3, 0.7), seed=7
    )
    assert set(result.degradation) == {"replan", "dynamic", "none"}
    for strategy, series in result.degradation.items():
        assert len(series) == 2
        assert all(d >= 0.0 for d in series), strategy
    # Static re-plan never loses to naive serial failover.
    for replan, none in zip(result.degradation["replan"], result.degradation["none"]):
        assert replan <= none + 1e-12
    assert result.worst("replan") <= result.worst("none")
    assert "replan" in result.render()
