"""Rebalancing strategies: conservation and floors."""

import pytest

from repro.core.greedy import greedy_minmax_allocation
from repro.core.spec import Allocation
from repro.dynlb.controller import RebalanceController
from repro.dynlb.drift import DriftProfile, DriftSpec
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
from repro.dynlb.workload import DynamicWorkload
from repro.faults.plan import FaultPlan
from repro.perf.model import PerformanceModel
from repro.util.rng import keyed_rng

_MODELS = {
    "big": PerformanceModel(a=4000.0, d=2.0),
    "mid": PerformanceModel(a=1500.0, d=1.0),
    "small": PerformanceModel(a=500.0, d=0.5),
}


def _ctx(allocation=None, total=48, models=None, min_nodes=None):
    models = models or dict(_MODELS)
    allocation = allocation or {"big": 16, "mid": 16, "small": 16}
    return RebalanceContext(
        step=0,
        models=models,
        allocation=Allocation(allocation),
        total_nodes=total,
        min_nodes=min_nodes or {},
        steps_remaining=10,
    )


def test_registry_builds_every_strategy():
    for name in STRATEGIES:
        assert make_rebalancer(name).name == name
    with pytest.raises(ValueError, match="unknown rebalancer"):
        make_rebalancer("magic")


def test_static_never_moves():
    ctx = _ctx()
    assert dict(StaticRebalancer().propose(ctx).items()) == dict(ctx.allocation.items())


def test_diffusion_conserves_nodes_and_helps_the_slow_component():
    ctx = _ctx()
    proposal = DiffusionRebalancer().propose(ctx)
    assert proposal.total() == ctx.allocation.total()
    # "big" is the bottleneck at a uniform split; diffusion must feed it.
    assert proposal["big"] > ctx.allocation["big"]
    assert proposal["small"] < ctx.allocation["small"]
    before = max(_MODELS[c].time(ctx.allocation[c]) for c in _MODELS)
    after = max(_MODELS[c].time(proposal[c]) for c in _MODELS)
    assert after < before


def test_diffusion_respects_floors():
    ctx = _ctx(min_nodes={"small": 10})
    proposal = DiffusionRebalancer().propose(ctx)
    assert proposal["small"] >= 10


def test_diffusion_two_components_use_a_single_pair():
    models = {"a": PerformanceModel(a=4000.0), "b": PerformanceModel(a=500.0)}
    ctx = _ctx(allocation={"a": 10, "b": 10}, total=20, models=models)
    proposal = DiffusionRebalancer().propose(ctx)
    assert proposal.total() == 20
    assert proposal["a"] > proposal["b"]


def test_diffusion_validation():
    with pytest.raises(ValueError, match="eta"):
        DiffusionRebalancer(eta=0.0)


def test_sweep_uses_the_whole_budget_proportionally():
    ctx = _ctx()
    proposal = SweepRebalancer().propose(ctx)
    assert proposal.total() == ctx.total_nodes
    assert proposal["big"] > proposal["mid"] > proposal["small"]
    before = max(_MODELS[c].time(ctx.allocation[c]) for c in _MODELS)
    after = max(_MODELS[c].time(proposal[c]) for c in _MODELS)
    assert after < before


def test_sweep_respects_floors_and_validates():
    ctx = _ctx(min_nodes={"small": 12})
    assert SweepRebalancer().propose(ctx)["small"] >= 12
    with pytest.raises(ValueError, match="passes"):
        SweepRebalancer(passes=0)


def test_hslb_resolve_beats_the_uniform_split():
    ctx = _ctx()
    proposal = HSLBRebalancer().propose(ctx)
    assert proposal.total() <= ctx.total_nodes
    assert all(proposal[c] >= 1 for c in _MODELS)
    before = max(_MODELS[c].time(ctx.allocation[c]) for c in _MODELS)
    after = max(_MODELS[c].time(proposal[c]) for c in _MODELS)
    assert after < before


def test_two_level_is_hslb_with_self_scheduling_inside():
    reb = TwoLevelRebalancer()
    assert isinstance(reb, HSLBRebalancer)
    assert reb.intra_policy == "self"
    assert "self" in reb.describe()


def test_proposals_respect_a_shrunken_budget():
    """Crash recovery hands strategies a smaller total; floors still hold."""
    for name in ("hslb", "diffusion", "sweep"):
        ctx = _ctx(allocation={"big": 10, "mid": 5, "small": 3}, total=18)
        proposal = make_rebalancer(name).propose(ctx)
        assert proposal.total() <= 18
        assert all(proposal[c] >= 1 for c in _MODELS)


def test_hslb_resolve_is_the_heap_under_the_floors():
    """A floor above the heap's own count on a fully spent budget: the
    re-solve takes the floors as an argument instead of having them patched
    on afterwards."""
    ctx = _ctx(min_nodes={"small": 12})
    proposal = HSLBRebalancer().propose(ctx)
    assert proposal.total() == ctx.total_nodes
    assert proposal["small"] == 12
    rest = {"big": _MODELS["big"], "mid": _MODELS["mid"]}
    best, _ = greedy_minmax_allocation(rest, ctx.total_nodes - 12)
    assert {c: proposal[c] for c in rest} == best  # optimal given the floor


# -- conservation, as a property of every proposal of a whole run -------------


class _Recorded(Rebalancer):
    """Delegates to a strategy and keeps every (context, proposal) pair."""

    def __init__(self, inner: Rebalancer) -> None:
        self.inner, self.name, self.intra_policy = inner, inner.name, inner.intra_policy
        self.calls: list[tuple[RebalanceContext, Allocation]] = []

    def propose(self, ctx: RebalanceContext) -> Allocation:
        proposal = self.inner.propose(ctx)
        self.calls.append((ctx, proposal))
        return proposal


def _drifting_workload(case: int) -> DynamicWorkload:
    """3-5 keyed curves with floors, every one drifting its own way; odd
    cases lose their largest component's nodes mid-run."""
    rng = keyed_rng(2102, "conservation", case)
    names = [f"c{j}" for j in range(int(rng.integers(3, 6)))]
    models = {
        name: PerformanceModel(
            a=float(rng.uniform(1000, 4000)),
            b=float(rng.uniform(0.0, 0.3)),
            c=float(rng.uniform(1.0, 1.4)),
            d=float(rng.uniform(0.0, 3.0)),
        )
        for name in names
    }
    steps = 24
    drift = DriftProfile(
        {
            name: DriftSpec(("linear", "step", "sine")[j % 3], rate=float(rng.uniform(0.3, 2.0)))
            for j, name in enumerate(names)
        },
        steps,
        seed=case,
    )
    faults = FaultPlan(seed=case, crash_step=int(rng.integers(5, 18))) if case % 2 else None
    return DynamicWorkload(
        f"keyed-{case}", models, total_nodes=int(rng.integers(64, 129)), steps=steps,
        drift=drift, seed=case, faults=faults,
        min_nodes={name: int(rng.integers(1, 4)) for name in names},
    )


@pytest.mark.parametrize("strategy", ("diffusion", "sweep", "two-level", "hslb"))
def test_every_proposal_of_a_run_conserves_the_budget_and_the_floors(strategy):
    """A short cadence, so a run is mostly proposals — including the one
    made on the survivors right after a crash."""
    for case in range(6):
        workload = _drifting_workload(case)
        recorded = _Recorded(make_rebalancer(strategy))
        result = RebalanceController(workload, recorded, interval=3).run()
        assert len(recorded.calls) >= 4, case
        for ctx, proposal in recorded.calls:
            assert set(proposal) == set(workload.components), (case, ctx.step)
            assert proposal.total() <= ctx.total_nodes, (case, ctx.step)
            for name, floor in workload.min_nodes.items():
                assert proposal[name] >= floor, (case, ctx.step, name)
        budgets = {ctx.total_nodes for ctx, _ in recorded.calls}
        if workload.faults is None:
            assert budgets == {workload.total_nodes}, case
        else:  # the recovery proposal and every later one see the survivors
            survivors = workload.total_nodes - result.crash.lost_nodes
            assert budgets == {workload.total_nodes, survivors}, case
