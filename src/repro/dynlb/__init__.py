"""Online rebalancing: dynamic + two-level DLB on top of the HSLB pipeline.

The static pipeline answers "how should nodes be split given the fitted
curves?" once.  This package keeps answering it *while the run drifts*:

* :mod:`repro.dynlb.drift`      — per-component drift models (linear,
  step, random walk) with keyed deterministic draws;
* :mod:`repro.dynlb.workload`   — the streaming timing feed over the
  CESM/FMO ground-truth curves, with noise, intra-component imbalance,
  and fault-plan crash hooks;
* :mod:`repro.dynlb.refit`      — exponentially-weighted incremental
  refitting with staleness detection and windowed full refits;
* :mod:`repro.dynlb.migration`  — the calibrated migration cost and the
  audit-trail event record;
* :mod:`repro.dynlb.rebalancer` — the strategy zoo (frozen static, full
  HSLB re-solve, diffusion, proportional sweep, two-level hybrid) behind
  one ``Rebalancer`` interface;
* :mod:`repro.dynlb.controller` — the feed -> refit -> decide -> migrate
  loop with migration-cost gating and crash interplay.
"""

from repro.dynlb.controller import (
    CrashRecord,
    DynlbRunResult,
    RebalanceController,
    compare_strategies,
)
from repro.dynlb.drift import DriftProfile, DriftSpec, drift_preset
from repro.dynlb.migration import MigrationEvent, migration_cost
from repro.dynlb.rebalancer import (
    STRATEGIES,
    DiffusionRebalancer,
    HSLBRebalancer,
    RebalanceContext,
    Rebalancer,
    StaticRebalancer,
    SweepRebalancer,
    TwoLevelRebalancer,
    make_rebalancer,
)
from repro.dynlb.refit import DriftAwareRefitter
from repro.dynlb.workload import (
    INTRA_POLICIES,
    DynamicWorkload,
    cesm_workload,
    fmo_workload,
)

__all__ = [
    "CrashRecord",
    "DiffusionRebalancer",
    "DriftAwareRefitter",
    "DriftProfile",
    "DriftSpec",
    "DynamicWorkload",
    "DynlbRunResult",
    "HSLBRebalancer",
    "INTRA_POLICIES",
    "MigrationEvent",
    "RebalanceContext",
    "RebalanceController",
    "Rebalancer",
    "STRATEGIES",
    "StaticRebalancer",
    "SweepRebalancer",
    "TwoLevelRebalancer",
    "cesm_workload",
    "compare_strategies",
    "drift_preset",
    "fmo_workload",
    "make_rebalancer",
    "migration_cost",
]
