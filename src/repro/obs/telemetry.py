"""Solver and pipeline telemetry: the metric families the toolkit emits.

One module owns every metric name so the naming scheme stays coherent
(``hslb_*`` for the pipeline, ``solver_*`` for the MINLP stack,
``service_*`` for the allocation service, ``faults_*`` for injection —
see DESIGN.md "Observability").  :data:`CATALOGUE` declares each family
once — name, kind, help, label names; :func:`family` is how a booking site
outside this module obtains one and :func:`ensure_registered` pre-registers
them all (a test keeps DESIGN.md's table equal to the catalogue).
Recording functions are cheap (a couple of dict operations) and
*unconditional*; per-iteration trace events are additionally gated on the
tracer so solver inner loops pay one attribute check while tracing is off.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from repro.obs.metrics import REGISTRY, Metric, MetricsRegistry
from repro.obs.trace import get_tracer

_TR = get_tracer()


class Family(NamedTuple):
    """One declared metric family."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: tuple[str, ...] = ()


def _declare(kind: str):
    return lambda name, help, *labels: Family(name, kind, help, labels)


_counter, _gauge, _histogram = map(_declare, ("counter", "gauge", "histogram"))

CATALOGUE = (
    _counter("solver_nodes_explored_total", "B&B nodes explored", "algorithm"),
    _counter("solver_nodes_pruned_total", "B&B nodes pruned", "algorithm"),
    _counter("solver_nlp_solves_total", "NLP subproblem solves", "algorithm"),
    _counter("solver_lp_solves_total", "LP relaxation solves", "algorithm"),
    _counter("solver_cuts_added_total", "OA linearization cuts added", "algorithm"),
    _counter("solver_incumbent_updates_total", "incumbent improvements", "algorithm"),
    _histogram("solver_wall_seconds", "per-solve wall time", "algorithm", "status"),
    _counter("hslb_degradations_total", "solver tier fallbacks", "from_tier", "to_tier"),
    _counter("hslb_pipeline_runs_total", "HSLB pipeline entries"),
    _counter("hslb_direct_misses_total", "pipeline solves OA answered better than the direct start"),
    _counter("hslb_gather_retries_total", "gather benchmark retries"),
    _counter("hslb_gather_dropped_total", "gather points dropped"),
    _counter("hslb_execution_recoveries_total", "mid-run crash recoveries"),
    _gauge(
        "hslb_prediction_error",
        "latest abs(predicted - actual) / actual: an executed plan's, or a dynlb step's",
        "component",
        "layout",
    ),
    _counter("faults_injected_total", "injected faults by kind", "kind", "stage"),
    _counter("service_requests_total", "requests booked, by how each was answered", "outcome"),
    _histogram("service_request_seconds", "service-side latency of every booked request"),
    _histogram("service_tier_request_seconds", "end-to-end tier latency, queue wait included"),
    _counter("service_overloads_total", "shed requests and refused batches"),
    _counter("service_retries_total", "service solve retries"),
    _counter("service_worker_failures_total", "injected solve crashes/hangs by kind", "kind"),
    _counter("service_corruptions_total", "corrupt results caught by validation"),
    _counter("service_breaker_transitions_total", "breaker state changes", "to"),
    _counter("service_breaker_blocks_total", "requests blocked by an open breaker"),
    _counter("service_admission_total", "admission verdicts", "decision", "priority"),
    _counter("service_coalesced_total", "single-flight roles taken", "outcome"),
    _counter("service_cache_hits_total", "solution-cache hits"),
    _counter("service_cache_misses_total", "solution-cache misses"),
    _counter("service_cache_evictions_total", "capacity evictions of live entries"),
    _counter("service_cache_expirations_total", "TTL expirations booked"),
    _counter("service_cache_inserts_total", "solution-cache inserts"),
    _gauge(
        "slo_latency_seconds", "rolling-window latency quantile", "priority", "quantile"
    ),
    _gauge("slo_outcome_rate", "rolling-window shed/error/degraded fraction", "kind", "priority"),
    _gauge("slo_burn_rate", "error-budget burn rate per target (1.0 = at budget)", "target"),
    _gauge("slo_window_requests", "requests in the rolling window by priority", "priority"),
    _counter("dynlb_steps_total", "dynamic-run steps simulated", "strategy"),
    _counter("dynlb_decisions_total", "rebalance decisions by trigger", "strategy", "trigger"),
    _counter(
        "dynlb_migrations_total", "migration outcomes (applied/gated/aborted/crash)",
        "outcome", "strategy",
    ),
    _counter("dynlb_refits_total", "incremental model refits by kind", "kind"),
    _counter("dynlb_stale_total", "perf-model staleness flags raised", "component"),
    _counter("dynlb_crash_recoveries_total", "mid-run crash recoveries", "strategy"),
    _histogram("dynlb_step_seconds", "per-step makespan", "strategy"),
    _histogram("dynlb_migration_cost_seconds", "charged migration stalls", "strategy"),
)

_BY_NAME = {f.name: f for f in CATALOGUE}


def family(registry: MetricsRegistry, name: str) -> Metric:
    """The catalogued family ``name`` on ``registry`` (get-or-create).

    Raises :class:`KeyError` for a name the catalogue does not declare, so
    a family cannot reach a scrape without a line in the table.
    """
    declared = _BY_NAME[name]
    return getattr(registry, declared.kind)(declared.name, declared.help)


def ensure_registered() -> None:
    """Pre-register every catalogued family so an empty scrape names them."""
    for declared in CATALOGUE:
        family(REGISTRY, declared.name)


def record_solve(algorithm: str, stats, status: str) -> None:
    """Fold one finished MINLP solve's :class:`SolveStats` into the registry."""
    REGISTRY.counter("solver_nodes_explored_total").inc(
        stats.nodes_explored, algorithm=algorithm
    )
    REGISTRY.counter("solver_nodes_pruned_total").inc(
        stats.nodes_pruned, algorithm=algorithm
    )
    REGISTRY.counter("solver_nlp_solves_total").inc(stats.nlp_solves, algorithm=algorithm)
    REGISTRY.counter("solver_lp_solves_total").inc(stats.lp_solves, algorithm=algorithm)
    REGISTRY.counter("solver_cuts_added_total").inc(stats.cuts_added, algorithm=algorithm)
    REGISTRY.counter("solver_incumbent_updates_total").inc(
        stats.incumbent_updates, algorithm=algorithm
    )
    REGISTRY.histogram("solver_wall_seconds").observe(
        stats.wall_time, algorithm=algorithm, status=status
    )
    if _TR.enabled:
        _TR.event(
            "solver.finished",
            algorithm=algorithm,
            status=status,
            nodes=stats.nodes_explored,
            nlp_solves=stats.nlp_solves,
            cuts=stats.cuts_added,
            incumbents=stats.incumbent_updates,
        )


def record_degradation(from_tier: str, to_tier: str, status: str, reason: str) -> None:
    """Exactly one event + counter bump per degradation-chain transition.

    ``reason`` carries the triggering exception/status message as
    provenance, so a trace shows *why* the chain moved tiers.
    """
    REGISTRY.counter("hslb_degradations_total").inc(
        from_tier=from_tier, to_tier=to_tier
    )
    if _TR.enabled:
        _TR.event(
            "solver.degraded",
            from_tier=from_tier,
            to_tier=to_tier,
            status=status,
            reason=reason,
        )


def record_direct_miss(gap: float) -> None:
    """OA beat the application's exact direct algorithm by ``gap``
    (relative): the direct algorithm missed the optimum."""
    REGISTRY.counter("hslb_direct_misses_total").inc()
    if _TR.enabled:
        _TR.event("solver.direct_miss", gap=gap)


def record_prediction_error(layout: str, errors: Mapping[str, float]) -> None:
    """A prediction met its measurement: ``errors`` maps each component (and,
    for an executed plan, ``"total"``, the makespan) to its relative
    |predicted - actual|.  dynlb's refitter books each observed step under
    ``layout="dynlb"``."""
    gauge = REGISTRY.gauge("hslb_prediction_error")
    for component, error in errors.items():
        gauge.set(error, component=component, layout=layout)


def record_fault(kind: str, stage: str) -> None:
    """An injected fault fired (gather crash, solver stall, node loss)."""
    REGISTRY.counter("faults_injected_total").inc(kind=kind, stage=stage)
    if _TR.enabled:
        _TR.event("fault.injected", kind=kind, stage=stage)


def record_dynlb_step(strategy: str, seconds: float) -> None:
    """One synchronous dynamic-run step finished; ``seconds`` is its makespan."""
    REGISTRY.counter("dynlb_steps_total").inc(strategy=strategy)
    REGISTRY.histogram("dynlb_step_seconds").observe(seconds, strategy=strategy)


def record_dynlb_decision(strategy: str, trigger: str) -> None:
    """The controller consulted its strategy (``trigger``: interval/stale)."""
    REGISTRY.counter("dynlb_decisions_total").inc(strategy=strategy, trigger=trigger)
    if _TR.enabled:
        _TR.event("dynlb.decision", strategy=strategy, trigger=trigger)


def record_dynlb_migration(strategy: str, outcome: str, cost: float) -> None:
    """A proposed rebalance was applied, gated, aborted, or crash-forced."""
    REGISTRY.counter("dynlb_migrations_total").inc(strategy=strategy, outcome=outcome)
    if cost:
        REGISTRY.histogram("dynlb_migration_cost_seconds").observe(
            cost, strategy=strategy
        )
    if _TR.enabled:
        _TR.event("dynlb.migration", strategy=strategy, outcome=outcome, cost=cost)


def record_dynlb_refit(kind: str) -> None:
    """A perf-model update landed (``kind``: scale or full)."""
    REGISTRY.counter("dynlb_refits_total").inc(kind=kind)


def record_dynlb_stale(component: str) -> None:
    """The refitter flagged one component's model as stale."""
    REGISTRY.counter("dynlb_stale_total").inc(component=component)
    if _TR.enabled:
        _TR.event("dynlb.stale", component=component)


def record_dynlb_crash(strategy: str) -> None:
    """A mid-run node crash was recovered by the rebalance controller."""
    REGISTRY.counter("dynlb_crash_recoveries_total").inc(strategy=strategy)
    if _TR.enabled:
        _TR.event("dynlb.crash_recovery", strategy=strategy)
