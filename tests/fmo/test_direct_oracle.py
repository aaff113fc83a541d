"""One budget row takes §III-E's polynomial solvers, and OA certifies them.

``hslb_schedule``, ``hslb_two_phase_schedule``, the dynlb re-solve
(``HSLBRebalancer``) and every served request each size components under
one row ``sum n_j <= N``, so :mod:`repro.core.greedy` answers them without
a tree.  Two checks:

* *routing* — with every MINLP entry point made to raise, all of them (and
  ``compare_strategies`` on both ``bench_dynlb.py`` scenarios, and the
  service under all three objectives) still answer;
* *oracle* — on keyed instances, every routed objective equals
  ``solve_minlp_oa`` on the same problem built by
  :class:`AllocationModelBuilder` to 1e-9.  OA is the reference, never the
  reverse.  The instances include the ties the heap breaks differently from
  OA (equal objective, other allocation): protein-12 seed 3 at 512 and 1024
  nodes, water-16 seeds 1/3/5 at 64, two-phase protein-10 seed 1 at 64 and
  256.
"""

import pytest

from repro.core.builder import AllocationModelBuilder
from repro.core.objectives import Objective
from repro.core.spec import Allocation
from repro.dynlb import cesm_workload, compare_strategies, fmo_workload
from repro.dynlb.rebalancer import HSLBRebalancer, RebalanceContext, TwoLevelRebalancer
from repro.faults.plan import FaultPlan
from repro.fmo.molecules import protein_like, water_cluster
from repro.fmo.schedulers import fragment_models, hslb_schedule
from repro.fmo.twophase import TwoPhaseSimulator, hslb_two_phase_schedule
from repro.minlp import oa as oa_module
from repro.minlp.bnb import BranchAndBound
from tests.minlp.brute_reference import solve_brute_force
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.solution import Status
from repro.perf.model import PerformanceModel
from repro.service import (
    AsyncServingTier,
    ComponentSpec,
    SolveRequest,
    TierConfig,
    run_requests,
)
from repro.service.solver import greedy_outcome, solve_request, validate_outcome
from repro.util.rng import default_rng, keyed_rng


def _oa_objective(models, total_nodes, floors=None, objective=Objective.MIN_MAX):
    """OA on the flat MINLP the call sites used to build."""
    b = AllocationModelBuilder("oracle", total_nodes)
    for name, model in models.items():
        b.add_component(name, model, min_nodes=(floors or {}).get(name, 1))
    b.limit_total_nodes()
    b.set_objective(objective)
    sol = solve_minlp_oa(b.build()).require_ok()
    assert sol.status is Status.OPTIMAL
    return sol.objective


def _makespan(models, counts):
    return max(float(models[name].time(n)) for name, n in counts.items())


def _system(kind, fragments, seed):
    make = protein_like if kind == "protein" else water_cluster
    return make(fragments, default_rng(seed))


# (system, fragments, seed, nodes): FMO-1 / FMO-speedup (protein-12 seed 3),
# ablation A1 (protein-10 seed 7 at 192), the CLI default (protein-12 at
# 256), and the ties.
SCHEDULES = [
    ("protein", 12, 3, 16),
    ("protein", 12, 3, 64),
    ("protein", 12, 3, 256),
    ("protein", 12, 3, 512),  # tie
    ("protein", 12, 3, 1024),  # tie
    ("protein", 10, 7, 192),
    ("water", 16, 1, 64),  # tie
    ("water", 16, 3, 64),  # tie
    ("water", 16, 5, 64),  # tie
]


@pytest.mark.parametrize(
    "kind, fragments, seed, nodes", SCHEDULES,
    ids=[f"{k}-{f}-s{s}@{n}" for k, f, s, n in SCHEDULES],
)
def test_hslb_schedule_min_max_equals_oa(kind, fragments, seed, nodes):
    system = _system(kind, fragments, seed)
    models = {f"frag{i}": m for i, m in fragment_models(system).items()}
    schedule, sol = hslb_schedule(system, nodes)
    counts = {f"frag{i}": n for i, n in enumerate(schedule.group_sizes)}
    assert sum(counts.values()) <= nodes
    assert sol.objective == _makespan(models, counts)
    assert sol.objective == pytest.approx(_oa_objective(models, nodes), rel=1e-9)


# A1's system and four more; every fragment curve is convex (c = 1), so OA
# is exact on their min-sum rows.
MIN_SUM_SCHEDULES = [
    ("protein", 10, 7, 192),
    ("protein", 8, 0, 64),
    ("protein", 12, 1, 128),
    ("protein", 12, 3, 128),
    ("water", 16, 1, 64),
]


@pytest.mark.parametrize(
    "kind, fragments, seed, nodes", MIN_SUM_SCHEDULES,
    ids=[f"{k}-{f}-s{s}@{n}" for k, f, s, n in MIN_SUM_SCHEDULES],
)
def test_hslb_schedule_min_sum_equals_oa(kind, fragments, seed, nodes):
    system = _system(kind, fragments, seed)
    models = {f"frag{i}": m for i, m in fragment_models(system).items()}
    schedule, sol = hslb_schedule(system, nodes, objective=Objective.MIN_SUM)
    counts = {f"frag{i}": n for i, n in enumerate(schedule.group_sizes)}
    assert sum(counts.values()) <= nodes
    assert sol.objective == sum(float(models[k].time(n)) for k, n in counts.items())
    assert sol.objective == pytest.approx(
        _oa_objective(models, nodes, objective=Objective.MIN_SUM), rel=1e-9
    )


TWO_PHASE = [(1, 32), (1, 64), (1, 128), (1, 256), (2, 64)]  # seed 1 @ 64, 256: ties


@pytest.mark.parametrize(
    "seed, nodes", TWO_PHASE, ids=[f"protein-10-s{s}@{n}" for s, n in TWO_PHASE]
)
def test_two_phase_monomer_sizing_equals_oa(seed, nodes):
    system = protein_like(10, default_rng(seed))
    sim = TwoPhaseSimulator(system, noise=0.0)
    models = {f"frag{f.index}": sim._monomer[f.index] for f in system.fragments}
    sizes = hslb_two_phase_schedule(system, nodes).monomer.group_sizes
    counts = {f"frag{i}": n for i, n in enumerate(sizes)}
    assert sum(counts.values()) <= nodes
    assert _makespan(models, counts) == pytest.approx(
        _oa_objective(models, nodes), rel=1e-9
    )


@pytest.mark.parametrize("case", range(4))
def test_rebalancer_resolve_under_floors_equals_oa(case):
    rng = keyed_rng(2710, "resolve", case)
    names = [f"c{j}" for j in range(int(rng.integers(3, 6)))]
    models = {
        name: PerformanceModel(
            a=float(rng.uniform(500, 4000)),
            b=float(rng.uniform(0.0, 0.3)),
            c=float(rng.uniform(1.0, 1.4)),
            d=float(rng.uniform(0.0, 3.0)),
        )
        for name in names
    }
    total = int(rng.integers(24, 97))
    floors = {name: int(rng.integers(1, total // (2 * len(names)) + 1)) for name in names}
    ctx = RebalanceContext(
        step=case,
        models=models,
        allocation=Allocation({name: total // len(names) for name in names}),
        total_nodes=total,
        min_nodes=floors,
    )
    proposal = HSLBRebalancer().propose(ctx)
    assert proposal.total() <= total
    assert all(proposal[name] >= floors[name] for name in names)
    assert _makespan(models, dict(proposal.items())) == pytest.approx(
        _oa_objective(models, total, floors), rel=1e-9
    )


def test_hslb_schedule_max_min_equals_brute_force():
    """Max-min's epigraph rows are nonconvex, so OA cannot certify it:
    brute force over the exactly-spent budget does, on a small system."""
    system = water_cluster(3, default_rng(2))
    models = {f"frag{i}": m for i, m in fragment_models(system).items()}
    b = AllocationModelBuilder("oracle-maxmin", 16)
    for name, model in models.items():
        b.add_component(name, model)
    b.limit_total_nodes(exact=True)
    b.set_objective(Objective.MAX_MIN)
    ref = solve_brute_force(b.build()).require_ok()
    _, sol = hslb_schedule(system, 16, objective=Objective.MAX_MIN)
    assert sol.objective == pytest.approx(ref.objective, rel=1e-9)


def test_one_budget_row_call_sites_never_run_a_minlp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-budget-row call site ran a MINLP solver")

    monkeypatch.setattr(oa_module, "solve_minlp_oa", refuse)
    # Every tree search, whatever name it was imported under.
    monkeypatch.setattr(BranchAndBound, "solve", refuse)

    system = protein_like(10, default_rng(1))
    for objective in Objective:
        schedule, sol = hslb_schedule(system, 128, objective=objective)
        assert sol.status is Status.OPTIMAL and schedule.total_nodes <= 128
    assert hslb_two_phase_schedule(system, 128).monomer.total_nodes <= 128

    # The service, every objective: the solve, the ladder's rung, a tier.
    components = {
        f"frag{i}": ComponentSpec(model, min_nodes=4 if i == 0 else 1)
        for i, model in fragment_models(system).items()
    }
    requests = [
        SolveRequest(components, 128, objective=objective.value)
        for objective in Objective
    ]
    for request in requests:
        for outcome in (solve_request(request), greedy_outcome(request)):
            assert outcome.allocation and validate_outcome(request, outcome) is None
    tier = AsyncServingTier(TierConfig(shards=2))
    responses = run_requests(tier, requests)
    assert all(r.ok and r.iterations == 0 for r in responses)

    models = {f"frag{i}": m for i, m in fragment_models(system).items()}
    ctx = RebalanceContext(
        step=0,
        models=models,
        allocation=Allocation({name: 12 for name in models}),
        total_nodes=120,
        min_nodes={"frag0": 20},
    )
    for strategy in (HSLBRebalancer(), TwoLevelRebalancer()):
        proposal = strategy.propose(ctx)
        assert proposal.total() <= 120 and proposal["frag0"] >= 20

    # The two bench_dynlb.py scenarios.
    cesm = cesm_workload(total_nodes=96, steps=40, drift="linear", drift_rate=0.8, seed=7)
    assert set(compare_strategies(cesm, interval=8)) >= {"hslb", "two-level"}
    crash = fmo_workload(
        fragments=6, total_nodes=64, steps=26, drift="step", seed=7,
        faults=FaultPlan(seed=7, crash_step=13),
    )
    for result in compare_strategies(crash, ("static", "hslb"), interval=8).values():
        assert result.crash is not None
