"""Fault-injection benchmarks F1/F2: the degradation guarantees, enforced.

F1 is the headline robustness claim: after losing a whole node group
mid-run, HSLB's static re-plan stays within 25% of the fault-free makespan
while doing nothing degrades strictly worse — and the idealized
work-stealing baseline (perfect knowledge of actual durations) buys only a
sliver over the static re-plan, mirroring the paper's static-vs-dynamic
argument.
"""

from repro.experiments.faults import run_fault_degradation, run_fault_pipeline

# Granular enough that one fragment is a small slice of the makespan —
# the regime HSLB targets (§IV: many fragments per group).
F1_KWARGS = dict(
    n_fragments=48, n_groups=6, total_nodes=96, fractions=(0.25, 0.5, 0.75)
)


def test_f1_makespan_degradation(benchmark, save_report):
    result = benchmark.pedantic(
        run_fault_degradation, kwargs=F1_KWARGS, rounds=1, iterations=1
    )
    save_report("faults_degradation", result.render())
    for i, frac in enumerate(result.fractions):
        replan = result.degradation["replan"][i]
        none = result.degradation["none"][i]
        # Static re-plan keeps the run within 25% of fault-free...
        assert replan < 0.25, f"replan degraded {replan:.1%} at crash {frac}"
        # ...no recovery is strictly worse at every crash point...
        assert none > replan, f"none ({none:.1%}) not worse at crash {frac}"
        # ...and neither can beat the fault-free run.
        assert replan >= 0.0 and none >= 0.0
    # Perfect-knowledge work stealing is an upper bound on any dynamic
    # runtime; static re-plan concedes at most a few points to it.
    worst_gap = max(
        r - d
        for r, d in zip(result.degradation["replan"], result.degradation["dynamic"])
    )
    assert worst_gap < 0.10


def test_f2_pipeline_survives_faults(benchmark, save_report):
    result = benchmark.pedantic(run_fault_pipeline, rounds=1, iterations=1)
    save_report("faults_pipeline", result.render())
    # Both flagship scenarios complete end to end under a 10% benchmark
    # failure rate plus one mid-run crash, and record their solver tier.
    assert [r[1] for r in result.rows] == ["yes", "yes"]
    for tier in result.tiers.values():
        assert tier in ("oa", "direct", "greedy")
