"""Deterministic fault injection for the HSLB pipeline.

§IV of the paper: "The weakest part of the HSLB algorithm, in our opinion,
is obtaining the actual performance data for fitting."  This subpackage
makes that weakness — and every other failure mode a production deployment
meets — injectable, so the gather/fit/solve/execute stack can be tested and
benchmarked under benchmark-run failures, timeouts, stragglers, solver
stalls, and mid-run node-group crashes.

Everything is seeded and deterministic: a :class:`FaultPlan` with the same
seed injects byte-identical faults, so every degraded run is reproducible.

The serving tier's chaos (:class:`repro.faults.chaos.ChaosPlan`) is imported
from its own module: it raises the tier's errors, so re-exporting it here
would load ``repro.service`` into every pipeline process.
"""

from repro.faults.plan import (
    BenchmarkFault,
    BenchmarkRunError,
    FaultInjectionError,
    FaultPlan,
    NodeCrashError,
)

__all__ = [
    "BenchmarkFault",
    "BenchmarkRunError",
    "FaultInjectionError",
    "FaultPlan",
    "NodeCrashError",
]
