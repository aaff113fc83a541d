"""Trace generation and replay: determinism, shape, and accounting."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.service import (
    AdmissionPolicy,
    AsyncServingTier,
    TierConfig,
    TraceSpec,
    generate_trace,
    replay,
)
from repro.service.loadgen import (
    ReplayReport,
    arrival_times,
    priority_histogram,
    request_pool,
)
from tests.service.conftest import hold_solves

SPEC = TraceSpec(n_requests=200, seed=7, n_families=3, duration=10.0)


def test_trace_is_bit_identical_across_generations():
    a = generate_trace(SPEC)
    b = generate_trace(SPEC)
    assert [e.to_payload() for e in a] == [e.to_payload() for e in b]
    assert [e.time for e in a] == [e.time for e in b]


def test_seed_changes_the_trace():
    a = generate_trace(SPEC)
    b = generate_trace(TraceSpec(n_requests=200, seed=8, n_families=3,
                                 duration=10.0))
    assert [e.request.fingerprint() for e in a] != [
        e.request.fingerprint() for e in b
    ]


def test_pool_is_families_times_budgets():
    pool = request_pool(SPEC)
    assert len(pool) == SPEC.n_families * len(SPEC.budgets)
    assert len({r.fingerprint() for r in pool}) == len(pool)


def test_arrivals_are_monotone_within_duration():
    times = arrival_times(SPEC)
    assert len(times) == SPEC.n_requests
    assert (times[1:] >= times[:-1]).all()
    assert times[0] >= 0.0 and times[-1] <= SPEC.duration


def test_flash_crowd_concentrates_arrivals():
    calm = TraceSpec(n_requests=1000, seed=7, duration=10.0,
                     flash_crowds=0, diurnal_amplitude=0.0)
    spiky = TraceSpec(n_requests=1000, seed=7, duration=10.0,
                      flash_crowds=1, flash_magnitude=8.0,
                      diurnal_amplitude=0.0)
    # The busiest 10% window of the spiky trace holds far more arrivals
    # than the flat trace's uniform share.
    def peak_share(spec):
        times = arrival_times(spec)
        window = spec.duration / 10
        return max(
            ((times >= t) & (times < t + window)).sum()
            for t in times
        ) / spec.n_requests

    assert peak_share(calm) < 0.15
    assert peak_share(spiky) > 0.3


def test_popularity_is_zipf_skewed():
    trace = generate_trace(TraceSpec(n_requests=2000, seed=7))
    counts = Counter(e.request.fingerprint() for e in trace)
    top, *_, bottom = [n for _, n in counts.most_common()]
    assert top > 5 * max(bottom, 1)  # heavy head, long tail


def test_priority_mix_roughly_holds():
    trace = generate_trace(TraceSpec(n_requests=2000, seed=7))
    hist = priority_histogram(trace)
    assert sum(hist.values()) == 2000
    assert hist["interactive"] == pytest.approx(1000, rel=0.15)
    assert hist["background"] == pytest.approx(400, rel=0.25)


def test_spec_validation():
    with pytest.raises(ValueError):
        TraceSpec(n_requests=0)
    with pytest.raises(ValueError):
        TraceSpec(n_families=0)
    with pytest.raises(ValueError):
        TraceSpec(diurnal_amplitude=1.0)


def test_replay_accounts_for_every_event():
    spec = TraceSpec(n_requests=60, seed=11, n_families=2, budgets=(48, 64))
    trace = generate_trace(spec)
    tier = AsyncServingTier(
        TierConfig(
            shards=2, admission=AdmissionPolicy(max_pending=2 * len(trace))
        )
    )
    hold_solves(tier)  # in flight together, as a burst of slow solves would be
    report = replay(tier, trace, speed=0.0)
    assert report.lost == 0
    assert report.shed == 0
    assert report.errors == 0
    assert report.answered == spec.n_requests
    snap = report.snapshot()
    assert snap["answered"] + snap["shed"] + snap["errors"] + snap["lost"] == (
        spec.n_requests
    )
    # A burst of 60 events over 4 distinct requests must coalesce heavily.
    assert report.coalesce["riders"] > 0
    assert snap["p50"] <= snap["p99"] <= snap["p999"]


def test_replay_reports_per_priority_percentiles():
    spec = TraceSpec(n_requests=60, seed=11, n_families=2, budgets=(48, 64))
    trace = generate_trace(spec)
    tier = AsyncServingTier(
        TierConfig(
            shards=2, admission=AdmissionPolicy(max_pending=2 * len(trace))
        )
    )
    snap = replay(tier, trace, speed=0.0).snapshot()
    per = snap["per_priority"]
    # Every class the trace mixed in answered at least once and reports
    # its own quantile ladder; counts reconcile with the overall total.
    assert set(per) == {"interactive", "batch", "background"}
    assert sum(stats["count"] for stats in per.values()) == snap["answered"]
    for stats in per.values():
        assert stats["count"] > 0
        assert 0.0 <= stats["p50"] <= stats["p99"] <= stats["p999"]
        assert stats["mean_latency"] >= 0.0


def test_report_percentiles_are_pinned_on_a_fixed_latency_stream():
    """One labelled histogram family replaced a dict of histograms: the
    numbers a report prints are the same, to the last digit, on a stream
    that leaves two classes exact and pushes one past the sample cap."""
    report = ReplayReport(n_requests=3000, wall_time=1.0, throughput_rps=3000.0)
    for i in range(3000):
        priority = (
            "interactive" if i % 10 < 8 else ("background" if i % 10 == 9 else "batch")
        )
        report.observe_latency(
            priority, 1e-4 * (1.0 + (i * 7919) % 1000) ** 1.9 / 10
        )
    snap = report.snapshot()
    assert (snap["p50"], snap["p99"], snap["p999"], snap["mean_latency"]) == (
        1.4075471698113207, 4.934426229508197, 7.5, 1.7307385697747528,
    )
    assert snap["per_priority"] == {
        "background": {
            "count": 300,
            "p50": 1.3277451350502467,
            "p99": 4.842796635147844,
            "p999": 4.935966199710292,
            "mean_latency": 1.7131993238464998,
        },
        "batch": {
            "count": 300,
            "p50": 1.3328251547553065,
            "p99": 4.852169938297341,
            "p999": 4.945424455679969,
            "mean_latency": 1.7181874119089593,
        },
        "interactive": {
            "count": 2400,
            "p50": 1.4123222748815167,
            "p99": 4.938775510204081,
            "p999": 7.9999999999999245,
            "mean_latency": 1.7344998702490069,
        },
    }
    # Reports are private: two of them never share a series.
    assert ReplayReport(1, 1.0, 1.0).snapshot()["per_priority"] == {}


def test_replay_sheds_under_a_tiny_admission_budget():
    spec = TraceSpec(n_requests=40, seed=11, n_families=2, budgets=(48, 64))
    trace = generate_trace(spec)
    tier = AsyncServingTier(
        TierConfig(shards=1, admission=AdmissionPolicy(max_pending=2))
    )
    hold_solves(tier)
    report = replay(tier, trace, speed=0.0)
    assert report.lost == 0  # shed is an *answer*, not a loss
    assert report.shed > 0
    assert report.answered + report.shed + report.errors == spec.n_requests
