"""The pipeline's, the fit's, dynlb's and the service's settable values: each
has a caller outside the tests (the solver's census is
``tests/minlp/test_surface.py``; both walk callers with ``tests/census.py``)."""

from repro.core.hslb import HSLBOptimizer
from repro.dynlb.controller import RebalanceController, compare_strategies
from repro.faults.chaos import ChaosPlan
from repro.faults.plan import FaultPlan
from repro.perf.fitting import fit_performance_model, fit_suite
from repro.service.loadgen import TraceSpec
from repro.service.service import ResiliencePolicy
from tests.census import options_of, orphans

#: Surface -> its options.  Operands a caller must pass (the application,
#: the data, the workload and strategy) are skipped.
SURFACES = {
    "HSLBOptimizer": options_of(HSLBOptimizer, skip=1),
    "fit_suite": options_of(fit_suite, skip=1),
    "fit_performance_model": options_of(fit_performance_model, skip=2),
    "RebalanceController": options_of(RebalanceController, skip=2),
    "compare_strategies": options_of(compare_strategies, skip=1),
    "ResiliencePolicy": options_of(ResiliencePolicy),
    "TraceSpec": options_of(TraceSpec),
    "FaultPlan": options_of(FaultPlan),
    "ChaosPlan": options_of(ChaosPlan),
}

#: The two exemptions, each with its reason.  Nothing else is exempt.
EXEMPT = {
    ("FaultPlan", "ChaosPlan"): (
        "the tests' fault injectors: a test sets a fault rate to make a "
        "failure happen, which is their whole purpose"
    ),
    ("ResiliencePolicy.allow_stale", "ResiliencePolicy.allow_greedy"): (
        "they gate the typed `rejected` rung of the wire format; whether that "
        "rung stays is the service census's decision, parked behind the "
        "ledger re-pin"
    ),
}


def _exempt(orphan: str) -> bool:
    surface = orphan.split(".", 1)[0]
    return any(orphan in names or surface in names for names in EXEMPT)


def test_exemptions_name_real_options():
    """An exemption cannot outlive what it exempts."""
    real = set(SURFACES) | {
        f"{surface}.{name}" for surface, (_, opts) in SURFACES.items() for name, _ in opts
    }
    for names in EXEMPT:
        assert set(names) <= real, names


def test_every_config_option_has_a_non_test_caller():
    """A keyword of ``HSLBOptimizer``, the three fit entry points,
    ``RebalanceController`` or ``compare_strategies``, or a field of
    ``ResiliencePolicy`` or ``TraceSpec``, stays only while ``src/``,
    ``benchmarks/`` or ``examples/`` sets it.  A value only a test sets is a
    constant: make it one, at its default, and delete what only another
    value reached."""
    missing = sorted(o for o in orphans(SURFACES) if not _exempt(o))
    assert not missing, f"options with no non-test caller: {missing}"
