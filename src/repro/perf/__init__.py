"""Performance-model substrate: the paper's Table II.

* :mod:`repro.perf.model` — the performance function
  ``T_j(n) = a_j/n + b_j n^{c_j} + d_j`` and its algebra;
* :mod:`repro.perf.data` — containers for benchmark observations
  ``(n_ji, y_ji)``;
* :mod:`repro.perf.fitting` — the constrained nonlinear least-squares fit
  (Table II line 10) with multistart and fit diagnostics.
"""

from repro.perf.data import BenchmarkSuite, ComponentBenchmark, ScalingObservation
from repro.perf.fitting import FitResult, fit_performance_model, fit_suite
from repro.perf.io import save_suite
from repro.perf.model import PerformanceModel
from repro.perf.selection import (
    PowerLawModel,
    SelectionResult,
    fit_amdahl,
    fit_power_law,
    select_model,
)

__all__ = [
    "BenchmarkSuite",
    "ComponentBenchmark",
    "FitResult",
    "PerformanceModel",
    "PowerLawModel",
    "ScalingObservation",
    "SelectionResult",
    "fit_amdahl",
    "fit_performance_model",
    "fit_power_law",
    "fit_suite",
    "save_suite",
    "select_model",
]
