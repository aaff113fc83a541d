"""The streaming timing feed: a drifting, noisy, crashable workload.

A :class:`DynamicWorkload` is the dynamic-rebalancing analogue of the
simulators' one-shot ``execute``: the run is ``steps`` synchronous
iterations, and after each one the controller observes every component's
wall time for that step.  Times follow the simulators' fitted ground
truth ``T_j(n_j)``, decayed by a :class:`~repro.dynlb.drift.DriftProfile`,
blurred by log-normal noise, and inflated by an intra-component imbalance
term that depends on the *intra policy* (Mohammed et al.'s second level):

* ``"static"`` — work inside the component is pinned to ranks, so its
  step time carries the straggler rank's penalty (a keyed uniform draw);
* ``"self"``   — dynamic self-scheduling inside the component smooths the
  stragglers away for a small fixed overhead.

Every draw is keyed on ``(component, step)`` via
:func:`repro.util.rng.keyed_rng` — never on the allocation or on call
order — so replaying the same workload under different strategies is a
controlled experiment: identical machine, different decisions.

Crashes reuse the PR 1 fault machinery: a :class:`FaultPlan` with
``crash_step`` set kills the node group hosting one component at the top
of that step, surfacing as the same :class:`NodeCrashError` the recovery
paths already understand.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.greedy import greedy_minmax_allocation
from repro.core.spec import Allocation
from repro.dynlb.drift import DriftProfile, drift_preset
from repro.faults.plan import FaultPlan, NodeCrashError
from repro.perf.model import PerformanceModel
from repro.util.rng import keyed_rng

INTRA_POLICIES = ("static", "self")


class DynamicWorkload:
    """A ``steps``-iteration run over drifting ground-truth components."""

    def __init__(
        self,
        name: str,
        models: Mapping[str, PerformanceModel],
        *,
        total_nodes: int,
        steps: int,
        drift: DriftProfile | None = None,
        noise: float = 0.02,
        imbalance: float = 0.15,
        self_overhead: float = 0.03,
        seed: int = 0,
        faults: FaultPlan | None = None,
        min_nodes: Mapping[str, int] | None = None,
    ) -> None:
        if not models:
            raise ValueError("workload needs at least one component")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if total_nodes < len(models):
            raise ValueError(
                f"total_nodes={total_nodes} cannot host {len(models)} components"
            )
        if noise < 0 or imbalance < 0 or self_overhead < 0:
            raise ValueError("noise, imbalance, and self_overhead must be >= 0")
        self.name = name
        self.models = dict(models)
        self.total_nodes = int(total_nodes)
        self.steps = int(steps)
        self.drift = drift or DriftProfile({}, steps, seed=seed)
        self.noise = float(noise)
        self.imbalance = float(imbalance)
        self.self_overhead = float(self_overhead)
        self.seed = int(seed)
        self.faults = faults
        self.min_nodes = {c: 1 for c in self.models}
        if min_nodes:
            self.min_nodes.update({c: int(v) for c, v in min_nodes.items()})

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(sorted(self.models))

    def _jitter(self, component: str, step: int) -> float:
        if not self.noise:
            return 1.0
        r = keyed_rng(self.seed, "dynlb-jitter", component, step)
        return float(min(max(np.exp(r.normal(0.0, self.noise)), 0.05), 20.0))

    def _intra(self, component: str, step: int, policy: str) -> float:
        if policy == "self":
            return 1.0 + self.self_overhead
        if not self.imbalance:
            return 1.0
        u = keyed_rng(self.seed, "dynlb-imbalance", component, step).random()
        return 1.0 + self.imbalance * float(u)

    def component_time(
        self, component: str, step: int, nodes: int, policy: str = "static"
    ) -> float:
        """Observed wall time of one component for one step."""
        if policy not in INTRA_POLICIES:
            raise ValueError(f"unknown intra policy {policy!r}")
        if nodes < 1:
            raise ValueError(f"{component} needs >= 1 node, got {nodes}")
        base = self.models[component].time(nodes)
        return float(
            base
            * self.drift.multiplier(component, step)
            * self._jitter(component, step)
            * self._intra(component, step, policy)
        )

    def step_times(
        self, step: int, allocation: Allocation, policy: str = "static"
    ) -> dict[str, float]:
        """Every component's wall time for one synchronous step."""
        return {
            c: self.component_time(c, step, allocation[c], policy)
            for c in self.components
        }

    # -- faults ------------------------------------------------------------

    def crash_event(self, step: int, allocation: Allocation) -> NodeCrashError | None:
        """The node-group crash injected at the top of ``step``, if any.

        The victim is ``faults.crash_component`` when named, else the
        component holding the most nodes (ties broken by name, so the
        event is deterministic).  Pure: the controller owns the
        "already crashed" bookkeeping, mirroring the FaultPlan contract.
        """
        plan = self.faults
        if plan is None or plan.crash_step is None or plan.crash_step != step:
            return None
        victim = plan.crash_component
        if victim is None or victim not in self.models:
            victim = max(self.components, key=lambda c: (allocation[c], c))
        return NodeCrashError(
            component=victim,
            lost_nodes=allocation[victim],
            fraction=plan.crash_fraction,
        )

    # -- plans -------------------------------------------------------------

    def initial_allocation(self) -> Allocation:
        """The frozen HSLB plan at step 0 (exact min-max via the greedy oracle).

        This is the static baseline every strategy starts from; the greedy
        marginal allocator is exact for the single-budget min-max problem
        under floors (checked against the MINLP on keyed specs in
        ``tests/service/test_greedy_rung.py``), so "static" really is the
        paper's HSLB answer.
        """
        alloc, _ = greedy_minmax_allocation(
            self.models, self.total_nodes, min_nodes=self.min_nodes
        )
        return Allocation(alloc)

    def describe(self) -> str:
        parts = [
            f"{self.name}: {len(self.models)} components x {self.steps} steps "
            f"on {self.total_nodes} nodes",
            self.drift.describe(),
            f"noise={self.noise:g}",
            f"imbalance={self.imbalance:g}",
        ]
        if self.faults is not None:
            parts.append(self.faults.describe())
        return ", ".join(parts)


# -- simulator-backed builders ---------------------------------------------


def cesm_workload(
    *,
    resolution: str = "1deg",
    total_nodes: int = 128,
    steps: int = 120,
    drift: str = "linear",
    drift_rate: float = 0.6,
    noise: float = 0.02,
    imbalance: float = 0.15,
    seed: int = 0,
    faults: FaultPlan | None = None,
) -> DynamicWorkload:
    """A dynamic run over the CESM simulator's ground-truth curves.

    The drifting component is the atmosphere — the dominant, most
    drift-prone CESM component (the IPDPSW paper's own motivation for
    re-tuning layouts between science campaigns).
    """
    from repro.cesm.grids import eighth_degree, one_degree

    config = one_degree() if resolution == "1deg" else eighth_degree()
    models = {name: truth.model for name, truth in config.ground_truth.items()}
    order = ("atm",) + tuple(c for c in sorted(models) if c != "atm")
    profile = drift_preset(drift, order, steps, rate=drift_rate, seed=seed)
    return DynamicWorkload(
        f"cesm-{config.name}",
        models,
        total_nodes=total_nodes,
        steps=steps,
        drift=profile,
        noise=noise,
        imbalance=imbalance,
        seed=seed,
        faults=faults,
    )


def fmo_workload(
    *,
    fragments: int = 8,
    total_nodes: int = 64,
    steps: int = 120,
    system: str = "protein",
    drift: str = "linear",
    drift_rate: float = 0.6,
    noise: float = 0.02,
    imbalance: float = 0.15,
    seed: int = 0,
    faults: FaultPlan | None = None,
) -> DynamicWorkload:
    """A dynamic run over per-fragment FMO curves (one component per fragment)."""
    from repro.fmo.molecules import protein_like, water_cluster
    from repro.fmo.timing import total_fragment_model
    from repro.util.rng import default_rng

    rng = default_rng(seed)
    mol = (
        protein_like(fragments, rng) if system == "protein" else water_cluster(fragments, rng)
    )
    models = {
        f"frag{f.index}": total_fragment_model(mol, f) for f in mol.fragments
    }
    order = tuple(sorted(models))
    profile = drift_preset(drift, order, steps, rate=drift_rate, seed=seed)
    return DynamicWorkload(
        f"fmo-{mol.name}",
        models,
        total_nodes=total_nodes,
        steps=steps,
        drift=profile,
        noise=noise,
        imbalance=imbalance,
        seed=seed,
        faults=faults,
    )
