"""The metric catalogue: one table, every family in it, nothing outside it."""

import asyncio
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults.chaos import ChaosPlan
from repro.obs.export import parse_prometheus
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.telemetry import CATALOGUE, family
from repro.service import (
    AdmissionPolicy,
    AsyncServingTier,
    ClassThresholds,
    ResiliencePolicy,
    RetryPolicy,
    ServiceOverloadError,
    TierConfig,
)
from tests.service.conftest import make_request

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def test_catalogue_rows_are_well_formed():
    names = [f.name for f in CATALOGUE]
    assert len(set(names)) == len(names)
    for declared in CATALOGUE:
        assert declared.kind in ("counter", "gauge", "histogram")
        assert declared.help and declared.labels == tuple(declared.labels)
        assert declared.name.split("_")[0] in (
            "solver", "hslb", "faults", "service", "slo", "dynlb"
        )
    # What duplicated another series, or nothing read, is gone.
    assert not {
        "service_degraded_total", "service_rejections_total",
        "service_solve_iterations_total", "solver_warm_starts_total",
    } & set(names)


def test_every_catalogued_family_registers_under_its_declared_kind():
    registry = MetricsRegistry()
    for declared in CATALOGUE:
        family(registry, declared.name)
    assert {m.name: m.kind for m in registry} == {f.name: f.kind for f in CATALOGUE}
    assert all(m.help for m in registry)
    # The families the request path writes were missing from the idle scrape.
    for name in (
        "service_requests_total", "service_request_seconds",
        "service_tier_request_seconds", "service_overloads_total", "service_admission_total",
        "service_coalesced_total",
    ):
        assert name in registry
    with pytest.raises(KeyError):
        family(registry, "service_no_such_total")


def test_hslb_metrics_lists_the_whole_catalogue(capsys):
    assert main(["metrics"]) == 0
    text = capsys.readouterr().out
    typed = dict(re.findall(r"^# TYPE (\w+) (\w+)$", text, flags=re.M))
    assert typed == {**typed, **{f.name: f.kind for f in CATALOGUE}}
    helped = set(re.findall(r"^# HELP (\w+) ", text, flags=re.M))
    assert {f.name for f in CATALOGUE} <= helped
    parse_prometheus(text)  # and it is still valid exposition


def test_a_tier_run_touches_only_catalogued_families_and_labels():
    """Solved, hit, degraded, shed, refused and chaos-ridden requests:
    whatever reaches the process registry has a line in the table."""
    tier = AsyncServingTier(
        TierConfig(
            shards=2,
            chaos=ChaosPlan(
                seed=3, crash_rate=0.3, hang_rate=0.1, corrupt_rate=0.1,
                immune_after=2,
            ),
            resilience=ResiliencePolicy(retry=RetryPolicy(max_attempts=3)),
            admission=AdmissionPolicy(
                max_pending=16,
                thresholds={
                    "interactive": ClassThresholds(degrade_at=1.0, shed_at=1.0),
                    "background": ClassThresholds(degrade_at=0.0, shed_at=1.0),
                    "batch": ClassThresholds(degrade_at=0.0, shed_at=0.0),
                },
            ),
        )
    )

    async def drive():
        async with tier:
            budgets = (24, 32, 48, 24, 64, 32)
            await asyncio.gather(
                *(
                    tier.submit(make_request(b, objective=o), priority="interactive")
                    for b in budgets
                    for o in ("min-max", "max-min", "min-sum")
                )
            )
            await tier.submit(make_request(24), priority="interactive")  # hit
            await tier.submit(make_request(80), priority="background")  # greedy
            with pytest.raises(ServiceOverloadError):
                await tier.submit(make_request(81), priority="batch")

    asyncio.run(drive())
    tier.slo.export(REGISTRY)
    snap = tier.snapshot()
    assert snap["cold_solves"] and snap["cache_hits"]
    assert snap["degraded_greedy"] == snap["overloads"] == 1
    assert snap["resilience"]["retries"]

    declared = {f.name: f for f in CATALOGUE}
    for metric in REGISTRY:
        assert metric.name in declared, f"{metric.name} is not in the catalogue"
        assert metric.kind == declared[metric.name].kind
        for _, key, _ in metric.samples():
            labels = {k for k, _ in key} - {"quantile", "le"}
            assert labels <= set(declared[metric.name].labels), (metric.name, key)


def test_design_carries_the_catalogue_table():
    """DESIGN's "Metric catalogue" table, row for row, is the catalogue."""
    table = "\n".join(
        ["| family | kind | labels | meaning |", "|---|---|---|---|"]
        + [
            f"| `{f.name}` | {f.kind} | {', '.join(f.labels) or '—'} | {f.help} |"
            for f in CATALOGUE
        ]
    )
    assert table in DESIGN.read_text(), (
        "DESIGN.md 'Observability' must hold this table verbatim:\n" + table
    )


@pytest.mark.parametrize("kind", ["cesm", "fmo"])
def test_an_executed_plan_books_its_prediction_error(kind):
    """``hslb_prediction_error`` holds what the plan's execution reports:
    ``HSLBResult.prediction_error`` as ``component="total"``, and each
    component's relative error next to it; a plan that is not executed
    books nothing."""
    from repro.cesm.app import CESMApplication
    from repro.cesm.grids import one_degree
    from repro.core.hslb import HSLBOptimizer
    from repro.experiments.paper_data import BENCHMARK_CAMPAIGN
    from repro.fmo.app import FMOApplication
    from repro.fmo.molecules import protein_like
    from repro.util.rng import default_rng

    if kind == "cesm":
        app, campaign, total = CESMApplication(one_degree()), BENCHMARK_CAMPAIGN["1deg"], 128
    else:
        app = FMOApplication(protein_like(8, default_rng(3)))
        campaign, total = [1, 2, 4, 8, 16], 64
    gauge = REGISTRY.gauge("hslb_prediction_error")
    layout = "hybrid" if kind == "cesm" else "none"
    assert app.layout_label == layout
    result = HSLBOptimizer(app).run(campaign, total, default_rng(11))
    assert result.prediction_error is not None
    assert gauge.value(component="total", layout=layout) == result.prediction_error
    for name, predicted in result.predicted_times.items():
        actual = result.actual_times[name]
        error = abs(predicted - actual) / actual
        assert gauge.value(component=name, layout=layout) == error
    booked = list(gauge.samples())
    HSLBOptimizer(app).run(campaign, total, default_rng(12), execute=False)
    assert list(gauge.samples()) == booked
