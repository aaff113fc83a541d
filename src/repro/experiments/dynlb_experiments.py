"""Online-rebalancing experiments: static vs. dynamic vs. two-level hybrid.

Two artifacts extend the paper's static story into the dynamic regime
(DESIGN.md, "Online rebalancing"):

* ``dynlb-comparison`` — every strategy over one drifting scenario: total
  simulated seconds, improvement over the frozen HSLB plan, and the
  migration audit (applied / gated counts, stall seconds, refits);
* ``dynlb-drift-sweep`` — the static-vs-hybrid gap as a function of the
  drift *shape*, answering "how much drift before re-tuning pays?".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dynlb import (
    DynlbRunResult,
    cesm_workload,
    compare_strategies,
    fmo_workload,
)
from repro.util.tables import format_table


@dataclass
class DynlbComparisonResult:
    """One scenario, every strategy: the headline static-vs-dynamic table."""

    workload: str
    results: dict[str, DynlbRunResult]

    def vs_static_pct(self) -> dict[str, float] | None:
        """Percent total-time gain of every strategy over the frozen static
        plan; ``None`` when the comparison did not run ``static``."""
        if "static" not in self.results:
            return None
        static = self.results["static"].total_seconds
        return {
            name: 100.0 * (static - r.total_seconds) / static
            for name, r in self.results.items()
        }

    def to_dict(self) -> dict:
        doc: dict = {"strategies": {n: r.to_dict() for n, r in self.results.items()}}
        gains = self.vs_static_pct()
        if gains is not None:
            doc["vs_static_pct"] = gains
        return doc

    def render(self) -> str:
        gains = self.vs_static_pct() or {}
        rows = []
        for name, r in self.results.items():
            vs = "-" if name == "static" or not gains else f"{gains[name]:+.1f}%"
            rows.append(
                [
                    name,
                    f"{r.total_seconds:.1f}",
                    vs,
                    r.migrations,
                    r.gated,
                    f"{r.migration_seconds:.1f}",
                    # Full refits only: scale refits are one per component
                    # per step for every strategy, static included.
                    r.refits_full,
                ]
            )
        table = format_table(
            ["strategy", "total s", "vs static", "migrations", "gated",
             "stall s", "full refits"],
            rows,
            title=f"Online rebalancing: {self.workload}",
        )
        crash = next((r.crash for r in self.results.values() if r.crash), None)
        if crash is None:
            return table
        return (
            f"{table}\n\ncrash: {crash.component!r} lost {crash.lost_nodes} "
            f"node(s) at step {crash.step}; every strategy re-planned on "
            "the survivors"
        )


def run_dynlb_comparison(
    *,
    scenario: str = "cesm",
    total_nodes: int = 96,
    steps: int = 40,
    fragments: int = 8,
    drift: str = "linear",
    drift_rate: float = 0.8,
    interval: int = 8,
    seed: int = 7,
) -> DynlbComparisonResult:
    """All five strategies over identical drift, noise, and imbalance draws."""
    if scenario == "cesm":
        workload = cesm_workload(
            total_nodes=total_nodes, steps=steps, drift=drift,
            drift_rate=drift_rate, seed=seed,
        )
    elif scenario == "fmo":
        workload = fmo_workload(
            fragments=fragments, total_nodes=total_nodes, steps=steps,
            drift=drift, drift_rate=drift_rate, seed=seed,
        )
    else:
        raise ValueError(f"unknown scenario {scenario!r}; expected cesm or fmo")
    results = compare_strategies(workload, interval=interval)
    return DynlbComparisonResult(workload=workload.describe(), results=results)


@dataclass
class DynlbDriftSweepResult:
    """Static-vs-dynamic gap across drift shapes (the "when to re-tune" map)."""

    rows: list[list[object]]

    def render(self) -> str:
        return format_table(
            ["drift", "static s", "hslb +%", "two-level +%", "migrations"],
            self.rows,
            title="Rebalancing gain vs. drift shape (CESM 1-degree)",
        )


def run_dynlb_drift_sweep(
    *,
    total_nodes: int = 96,
    steps: int = 40,
    drift_rate: float = 0.8,
    interval: int = 8,
    seed: int = 7,
) -> DynlbDriftSweepResult:
    """Sweep the drift shape; report each dynamic strategy's gain over static."""
    rows: list[list[object]] = []
    for drift in ("none", "linear", "step", "walk"):
        workload = cesm_workload(
            total_nodes=total_nodes, steps=steps, drift=drift,
            drift_rate=drift_rate, seed=seed,
        )
        results = compare_strategies(
            workload, ("static", "hslb", "two-level"), interval=interval
        )
        static = results["static"].total_seconds
        rows.append(
            [
                drift,
                f"{static:.1f}",
                f"{100 * (static - results['hslb'].total_seconds) / static:+.1f}",
                f"{100 * (static - results['two-level'].total_seconds) / static:+.1f}",
                sum(r.migrations for r in results.values()),
            ]
        )
    return DynlbDriftSweepResult(rows=rows)
