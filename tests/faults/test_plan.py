"""Tests for the deterministic fault plan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    BenchmarkFault,
    BenchmarkRunError,
    FaultInjectionError,
    FaultPlan,
    NodeCrashError,
)


def test_validation_rejects_bad_rates():
    with pytest.raises(ValueError, match="fail_rate"):
        FaultPlan(fail_rate=1.0)
    with pytest.raises(ValueError, match="fail_rate"):
        FaultPlan(fail_rate=-0.1)
    with pytest.raises(ValueError, match="must be < 1"):
        FaultPlan(fail_rate=0.6, timeout_rate=0.5)
    with pytest.raises(ValueError, match="straggler_scale"):
        FaultPlan(straggler_rate=0.1, straggler_scale=1.0)
    with pytest.raises(ValueError, match="crash_fraction"):
        FaultPlan(crash_component="ocn", crash_fraction=1.0)
    with pytest.raises(ValueError, match="solver tier"):
        FaultPlan(solver_stall=("simplex",))
    with pytest.raises(ValueError, match="solver tier"):
        FaultPlan(solver_stall=("nlpbb",))  # no longer a pipeline tier
    with pytest.raises(ValueError, match="not both"):
        FaultPlan(crash_component="ocn", crash_group=1)


def test_fault_kind_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        BenchmarkFault("meltdown", "cesm", 64, 0)


def test_recoverable_property():
    assert BenchmarkFault("failure", "cesm", 64, 0).recoverable
    assert BenchmarkFault("timeout", "cesm", 64, 0).recoverable
    assert not BenchmarkFault("permanent", "cesm", 64, 0).recoverable


def test_exception_hierarchy():
    fault = BenchmarkFault("failure", "cesm", 64, 1)
    err = BenchmarkRunError(fault)
    assert isinstance(err, FaultInjectionError)
    assert err.fault is fault
    assert "64 nodes" in str(err)
    crash = NodeCrashError(component="ocn", lost_nodes=22, fraction=0.5)
    assert isinstance(crash, FaultInjectionError)
    assert "ocn" in str(crash) and "50%" in str(crash)


def test_check_benchmark_raises_and_passes():
    plan = FaultPlan(seed=3, fail_rate=0.5)
    hit = [n for n in range(1, 200) if plan.benchmark_fault("cesm", n, 0)]
    clean = [n for n in range(1, 200) if not plan.benchmark_fault("cesm", n, 0)]
    assert hit and clean  # a 50% rate must produce both
    with pytest.raises(BenchmarkRunError):
        plan.check_benchmark("cesm", hit[0], 0)
    plan.check_benchmark("cesm", clean[0], 0)  # no raise


def test_fail_rate_is_roughly_respected():
    plan = FaultPlan(seed=1, fail_rate=0.3)
    hits = sum(
        plan.benchmark_fault("cesm", n, 0) is not None for n in range(1, 1001)
    )
    assert 0.2 < hits / 1000 < 0.4


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    nodes=st.lists(st.integers(1, 10_000), min_size=1, max_size=8, unique=True),
    attempts=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
)
def test_same_seed_injects_identical_faults(seed, nodes, attempts):
    """The headline determinism property: faults are keyed by event identity,
    never by call order, so two same-seed plans agree on every query no
    matter how the queries are interleaved."""
    a = FaultPlan(seed=seed, fail_rate=0.3, timeout_rate=0.2, straggler_rate=0.3)
    b = FaultPlan(seed=seed, fail_rate=0.3, timeout_rate=0.2, straggler_rate=0.3)
    forward = [
        (a.benchmark_fault("x", n, k), a.straggler_multiplier("x", "u", n, k))
        for n in nodes
        for k in attempts
    ]
    backward = [
        (b.benchmark_fault("x", n, k), b.straggler_multiplier("x", "u", n, k))
        for n in reversed(nodes)
        for k in reversed(attempts)
    ]
    assert forward == list(reversed(backward))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), nodes=st.integers(1, 10_000))
def test_different_scopes_are_independent_streams(seed, nodes):
    plan = FaultPlan(seed=seed, straggler_rate=0.99)
    # Same unit/nodes under different scopes must not be forced to agree;
    # equality of the full 200-point profile would mean the scope is ignored.
    cesm = [plan.straggler_multiplier("cesm", i, nodes) for i in range(200)]
    fmo = [plan.straggler_multiplier("fmo", i, nodes) for i in range(200)]
    assert cesm != fmo


def test_permanent_faults_are_attempt_independent():
    plan = FaultPlan(seed=9, permanent_rate=0.4)
    dead = [
        n
        for n in range(1, 200)
        if (f := plan.benchmark_fault("cesm", n, 0)) and f.kind == "permanent"
    ]
    assert dead
    for n in dead[:10]:
        for attempt in range(5):
            fault = plan.benchmark_fault("cesm", n, attempt)
            assert fault is not None and fault.kind == "permanent"


def test_transient_failures_can_clear_on_retry():
    plan = FaultPlan(seed=5, fail_rate=0.5)
    recovered = any(
        plan.benchmark_fault("cesm", n, 0) is not None
        and plan.benchmark_fault("cesm", n, 1) is None
        for n in range(1, 100)
    )
    assert recovered


def test_straggler_multiplier_bounds():
    plan = FaultPlan(seed=2, straggler_rate=0.5, straggler_scale=4.0)
    mults = [plan.straggler_multiplier("fmo", i, 8) for i in range(500)]
    slowed = [m for m in mults if m != 1.0]
    assert slowed, "50% straggler rate must inflate some timings"
    assert all(1.5 <= m <= 4.0 for m in slowed)
    # Keyed draws: asking twice gives the same answer.
    assert mults == [plan.straggler_multiplier("fmo", i, 8) for i in range(500)]


def test_zero_rate_plan_is_silent():
    plan = FaultPlan(seed=123)
    assert plan.benchmark_fault("cesm", 64, 0) is None
    assert plan.straggler_multiplier("cesm", "atm", 64) == 1.0
    assert not plan.solver_fails("oa")
    assert plan.crash_component is None and plan.crash_group is None


def test_solver_stall_and_crash_flags():
    plan = FaultPlan(solver_stall=("oa",), crash_group=2, crash_fraction=0.3)
    assert plan.solver_fails("oa") and not FaultPlan().solver_fails("oa")
    assert (plan.crash_group, plan.crash_fraction) == (2, 0.3)


def test_describe_echoes_the_knobs():
    text = FaultPlan(
        seed=7, fail_rate=0.1, straggler_rate=0.05, crash_component="ocn"
    ).describe()
    assert "seed=7" in text
    assert "fail=10%" in text
    assert "crash=ocn@50%" in text
    assert "timeout" not in text  # silent knobs stay out of the echo
    grp = FaultPlan(crash_group=1, solver_stall=("oa",)).describe()
    assert "crash=group1@50%" in grp and "solver_stall=oa" in grp
