"""Table-III-style reporting of manual vs HSLB allocations."""

from __future__ import annotations

from repro.core.hslb import HSLBResult
from repro.core.spec import Allocation, ExecutionResult
from repro.util.tables import format_table


def allocation_table(result: HSLBResult, *, title: str | None = None) -> str:
    """One HSLB run: per-component nodes, predicted and actual seconds."""
    headers = ["component", "# nodes", "predicted s"]
    has_actual = result.execution is not None
    if has_actual:
        headers.append("actual s")
    rows = []
    for name in result.allocation.components:
        row: list[object] = [
            name,
            result.allocation[name],
            result.predicted_times.get(name, float("nan")),
        ]
        if has_actual:
            row.append(result.execution.component_times.get(name, float("nan")))
        rows.append(row)
    total: list[object] = ["TOTAL", "", result.predicted_total]
    if has_actual:
        total.append(result.execution.total_time)
    rows.append(total)
    return format_table(headers, rows, title=title)


def comparison_table(
    manual_allocation: Allocation,
    manual_execution: ExecutionResult,
    result: HSLBResult,
    *,
    title: str | None = None,
) -> str:
    """The full Table III block: manual vs HSLB predicted vs HSLB actual."""
    headers = [
        "component",
        "manual nodes",
        "manual s",
        "HSLB nodes",
        "HSLB predicted s",
        "HSLB actual s",
    ]
    rows = []
    for name in result.allocation.components:
        rows.append(
            [
                name,
                manual_allocation[name] if name in manual_allocation.nodes else "",
                manual_execution.component_times.get(name, float("nan")),
                result.allocation[name],
                result.predicted_times.get(name, float("nan")),
                (
                    result.execution.component_times.get(name, float("nan"))
                    if result.execution
                    else float("nan")
                ),
            ]
        )
    rows.append(
        [
            "TOTAL",
            "",
            manual_execution.total_time,
            "",
            result.predicted_total,
            result.execution.total_time if result.execution else float("nan"),
        ]
    )
    return format_table(headers, rows, title=title)


def resilience_summary(result: HSLBResult) -> str:
    """Every degradation the pipeline absorbed, one line per stage.

    Empty-ish runs say so explicitly: operators reading a fault-injected
    report need "no degradation" stated, not inferred from absence.
    """
    lines = []
    if result.gather_report is not None and result.gather_report.degraded:
        lines.append(result.gather_report.summary())
    if result.provenance is not None:
        lines.append(result.provenance.summary())
    if result.recovery is not None:
        lines.append(result.recovery.summary())
    if not lines:
        lines.append(f"pipeline: no degradation (solver tier {result.solver_tier})")
    return "\n".join(lines)


def speedup_summary(
    manual_execution: ExecutionResult, result: HSLBResult
) -> dict[str, float]:
    """Headline ratios the paper quotes (e.g. 'improved ... by 25%')."""
    out: dict[str, float] = {
        "manual_total": manual_execution.total_time,
        "hslb_predicted_total": result.predicted_total,
    }
    if result.execution is not None:
        actual = result.execution.total_time
        out["hslb_actual_total"] = actual
        if actual > 0:
            out["actual_speedup"] = manual_execution.total_time / actual
            out["improvement_pct"] = 100.0 * (
                1.0 - actual / manual_execution.total_time
            )
    if manual_execution.total_time > 0:
        out["predicted_improvement_pct"] = 100.0 * (
            1.0 - result.predicted_total / manual_execution.total_time
        )
    return out
