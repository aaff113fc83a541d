"""The exact layout scan (``cesm.layouts.direct_layout``) against oracles
that share no code with it.

* Brute force over the Table I MINLP itself on small keyed specs: every
  layout, constrained and free ocean, with and without the minor components,
  with Tsync off, zero or drawn.
* Under Tsync, an O(N²) enumeration of the ice/land grid on probe F's
  budgets (1° fits of seed 2014, 128-2048 nodes, Tsync 20 to 0.2 s).
* Cold OA on every Table III block, on A4's machine sizes and on fifteen
  budgets over the ground-truth curves (1° at 48-3000, 1/8° constrained and
  free-ocean at 2048-40 960).

The pipeline starts OA at the scan's answer and records the gap between the
two on ``SolverProvenance``; the Table III and A4 tests check that
certificate too.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cesm.app import CESMApplication
from repro.cesm.components import COMPONENTS, one_degree_ground_truth
from repro.cesm.grids import CESMConfiguration, eighth_degree, one_degree
from repro.cesm.layouts import (
    MINOR_HOSTS,
    Layout,
    direct_layout,
    formulate_layout,
    layout_total_time,
)
from repro.core.builder import DiscreteNodeSet
from repro.core.hslb import DIRECT_GAP_TOL, HSLBOptimizer
from repro.experiments.paper_data import BENCHMARK_CAMPAIGN
from repro.experiments.table3 import TABLE3, config_for
from tests.minlp.brute_reference import solve_brute_force
from repro.minlp.oa import solve_minlp_oa
from repro.minlp.solution import Solution, Status
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng, keyed_rng

SEED = 3671


def _keyed_spec(key: int, layout: Layout, free_ocean: bool, minors: bool):
    """A layout instance small enough for brute force: ``N`` in 3-6, random
    sweet-spot sets (gaps and all), floors of 1-2 nodes, convex curves whose
    minimum often lies inside the machine (so a budget past it must not
    buy the slower counts)."""
    rng = keyed_rng(SEED + key, "direct-layout", layout.value, free_ocean, minors)
    total = int(rng.integers(3, 7))

    def curve() -> PerformanceModel:
        b = float(rng.uniform(0.0, 40.0)) if rng.uniform() < 0.7 else 0.0
        return PerformanceModel(
            a=float(rng.uniform(1.0, 100.0)),
            b=b,
            c=float(rng.uniform(1.0, 2.0)),
            d=float(rng.uniform(0.0, 5.0)),
        )

    def sweet_spots() -> DiscreteNodeSet:
        size = int(rng.integers(1, total + 1))
        picked = rng.choice(np.arange(1, total + 1), size=size, replace=False)
        return DiscreteNodeSet(tuple(int(v) for v in picked))

    config = CESMConfiguration(
        name="keyed",
        description="keyed small spec",
        ground_truth=one_degree_ground_truth(),
        atm_allowed=sweet_spots(),
        ocean_allowed=None if free_ocean else sweet_spots(),
        min_nodes={c: int(rng.integers(1, 3)) for c in ("lnd", "ice", "ocn")},
    )
    models = {c: curve() for c in COMPONENTS}
    minor_models = {m: curve() for m in MINOR_HOSTS} if minors else None
    return models, total, config, minor_models


def _assert_admissible(alloc, total, config, layout) -> None:
    """The allocation obeys Table I's sets, floors and node budgets."""
    assert alloc["atm"] in config.atm_allowed
    if config.ocean_allowed is not None:
        assert alloc["ocn"] in config.ocean_allowed
    else:
        assert alloc["ocn"] >= config.component_min_nodes("ocn")
    for comp in ("ice", "lnd"):
        assert alloc[comp] >= config.component_min_nodes(comp)
    if layout is Layout.HYBRID:
        assert alloc["ice"] + alloc["lnd"] <= alloc["atm"]
        assert alloc["atm"] + alloc["ocn"] <= total
    elif layout is Layout.SEQUENTIAL_GROUP:
        assert max(alloc["ice"], alloc["lnd"], alloc["atm"]) + alloc["ocn"] <= total
    else:
        assert max(alloc[c] for c in COMPONENTS) <= total


def _host_times(models, minor_models, alloc) -> dict[str, float]:
    """Predicted times at ``alloc``, each minor on its host's count."""
    times = {c: float(models[c].time(alloc[c])) for c in COMPONENTS}
    for minor, model in (minor_models or {}).items():
        times[minor] = float(model.time(alloc[MINOR_HOSTS[minor]]))
    return times


def _sync_gap(times) -> float:
    """``|T_ice - T_lnd|`` as the Tsync rows see it (rtm rides land)."""
    return abs(times["ice"] - times["lnd"] - times.get("rtm", 0.0))


def _drawn_tsync(key: int, models) -> float:
    """A Tsync up to the ice curve's one-node time: loose, binding or
    unmeetable, depending on the spec."""
    u = keyed_rng(SEED + key, "direct-layout-tsync").uniform(0.0, 1.0)
    return float(u * models["ice"].time(1))


@settings(max_examples=90, deadline=None)
@given(
    key=st.integers(0, 10_000),
    layout=st.sampled_from(list(Layout)),
    free_ocean=st.booleans(),
    minors=st.booleans(),
    sync=st.sampled_from(["off", "zero", "drawn"]),
)
def test_scan_matches_brute_force(key, layout, free_ocean, minors, sync):
    models, total, config, minor_models = _keyed_spec(key, layout, free_ocean, minors)
    tsync = {"off": None, "zero": 0.0}.get(sync, _drawn_tsync(key, models))
    problem = formulate_layout(
        models, total, config, layout=layout, tsync=tsync, minor_models=minor_models
    )
    brute = solve_brute_force(problem)
    found = direct_layout(
        models, total, config, layout=layout, tsync=tsync, minor_models=minor_models
    )
    if found is None:
        assert not brute.status.is_ok
        return
    alloc, objective = found
    assert brute.status.is_ok
    assert objective == pytest.approx(brute.objective, rel=1e-9, abs=1e-9)
    _assert_admissible(alloc, total, config, layout)
    times = _host_times(models, minor_models, alloc)
    assert objective == layout_total_time(layout, times)
    if tsync is not None and layout is Layout.HYBRID:
        assert _sync_gap(times) <= tsync


@pytest.mark.parametrize("minors", [False, True])
def test_scan_reports_a_layout_tsync_cannot_meet(minors):
    """Ice always slower than land by more than Tsync: no allocation, as
    brute force finds; without Tsync the same spec is feasible."""
    models, total, config, minor_models = _keyed_spec(3, Layout.HYBRID, True, minors)
    models = {**models, "ice": PerformanceModel(a=10.0, d=500.0),
              "lnd": PerformanceModel(a=10.0, d=1.0)}
    problem = formulate_layout(
        models, total, config, tsync=5.0, minor_models=minor_models
    )
    assert not solve_brute_force(problem).status.is_ok
    assert direct_layout(models, total, config, tsync=5.0,
                         minor_models=minor_models) is None
    assert direct_layout(models, total, config, minor_models=minor_models) is not None


def test_scan_reports_an_empty_layout():
    """No admissible atmosphere count inside the machine: no allocation."""
    models, _, config, _ = _keyed_spec(0, Layout.HYBRID, True, False)
    config = CESMConfiguration(
        name="empty",
        description="atm sweet spots beyond the machine",
        ground_truth=config.ground_truth,
        atm_allowed=DiscreteNodeSet((50, 60)),
        ocean_allowed=None,
    )
    for layout in Layout:
        assert direct_layout(models, 8, config, layout=layout) is None


def _paper_fits(resolution: str, config, seed: int = 2014):
    """The fitted curves ``run_table3_block`` solves with (same RNG stream)."""
    rng = default_rng(seed)
    opt = HSLBOptimizer(CESMApplication(config))
    suite = opt.gather(BENCHMARK_CAMPAIGN[resolution], rng)
    return opt, {name: fit.model for name, fit in opt.fit(suite, rng).items()}


@pytest.mark.parametrize("key", list(TABLE3))
def test_table3_blocks_match_cold_oa_and_certify(key):
    block = TABLE3[key]
    config = config_for(block)
    opt, models = _paper_fits(block.resolution, config)
    cold = solve_minlp_oa(formulate_layout(models, block.total_nodes, config))
    _, objective = direct_layout(models, block.total_nodes, config)
    assert objective == pytest.approx(cold.require_ok().objective, rel=1e-9)
    _, solution = opt.solve(models, block.total_nodes)
    assert opt.last_provenance.tier == "oa"
    assert abs(opt.last_provenance.direct_gap) <= DIRECT_GAP_TOL
    assert solution.objective == pytest.approx(cold.objective, rel=1e-9)


def test_a4_sizes_match_cold_oa_and_certify():
    """Ablation A4's machine sizes (1° layout 1, fits from seed 2014)."""
    opt, models = _paper_fits("1deg", one_degree())
    for total in (128, 512, 2048, 8192, 40960):
        cold = solve_minlp_oa(formulate_layout(models, total, one_degree()))
        _, solution = opt.solve(models, total)
        assert abs(opt.last_provenance.direct_gap) <= DIRECT_GAP_TOL, total
        assert solution.objective == pytest.approx(cold.objective, rel=1e-9)


_PROBE_BUDGETS = [
    ("1deg", one_degree, (48, 128, 512, 1024, 3000)),
    ("eighth", eighth_degree, (2048, 8192, 16384, 32768, 40960)),
    ("eighth-freeocn", lambda: eighth_degree(constrained_ocean=False),
     (2048, 8192, 16384, 32768, 40960)),
]


@pytest.mark.parametrize(
    "make_config,total",
    [(make, total) for _, make, budgets in _PROBE_BUDGETS for total in budgets],
    ids=[f"{name}-{total}" for name, _, budgets in _PROBE_BUDGETS for total in budgets],
)
def test_ground_truth_budgets_match_cold_oa(make_config, total):
    config = make_config()
    models = {c: truth.model for c, truth in config.ground_truth.items()}
    cold = solve_minlp_oa(formulate_layout(models, total, config)).require_ok()
    alloc, objective = direct_layout(models, total, config)
    assert objective == pytest.approx(cold.objective, rel=1e-9)
    if config.name == "eighth" and total == 40960:
        assert objective == pytest.approx(1129.387575, abs=1e-6)
        assert (alloc["ice"], alloc["lnd"]) == (21189, 311)


def test_start_is_a_full_discrete_assignment():
    """``direct_start`` values every discrete variable of ``formulate``'s
    problem — run binaries included — under Tsync too."""
    for config, total in ((one_degree(), 2048), (one_degree(), 64),
                          (eighth_degree(), 32768),
                          (eighth_degree(constrained_ocean=False), 8192)):
        app = CESMApplication(config)
        models = {c: truth.model for c, truth in config.ground_truth.items()}
        start = app.direct_start(models, total)
        problem = app.formulate(models, total)
        assert set(start) == {v.name for v in problem.discrete_variables()}
        sos_members = {m for s in problem.sos1_sets for m in s.members}
        assert sum(start[m] for m in sos_members) == len(problem.sos1_sets)
    models = {c: truth.model for c, truth in one_degree().ground_truth.items()}
    app = CESMApplication(one_degree(), tsync=0.2)
    start = app.direct_start(models, 128)
    problem = app.formulate(models, 128)
    assert set(start) == {v.name for v in problem.discrete_variables()}
    alloc = app.allocation_from_solution(Solution(Status.FEASIBLE, values=start))
    assert _sync_gap(_host_times(models, None, alloc)) <= 0.2


def _enumerated_optimum(models, total, config, tsync, minor_models=None) -> float:
    """Layout 1 under Tsync by brute enumeration of the ice/land grid:
    ``h(m)``, the least ``max(T_ice(p), T_lnd(q))`` over ``p + q <= m`` and
    ``|T_ice(p) - T_lnd(q)| <= tsync``, then the atmosphere/ocean split.
    Minors ride their hosts (rtm on land, cpl on the atmosphere)."""
    riders = {MINOR_HOSTS[m]: model for m, model in (minor_models or {}).items()}

    def times(comp):
        t = np.full(total + 1, np.inf)
        allowed = config.allowed(comp)
        for n in range(config.component_min_nodes(comp), total + 1):
            if n >= 1 and (allowed is None or n in allowed):
                t[n] = float(models[comp].time(n))
                if comp in riders:
                    t[n] += float(riders[comp].time(n))
        return t

    ice, lnd, atm, ocn = (times(c) for c in ("ice", "lnd", "atm", "ocn"))
    p, q = np.meshgrid(np.arange(total + 1), np.arange(total + 1), indexing="ij")
    both = np.isfinite(ice)[:, None] & np.isfinite(lnd)[None, :]
    with np.errstate(invalid="ignore"):
        gap = np.abs(ice[:, None] - lnd[None, :])
    ok = both & (p + q <= total) & (gap <= tsync)
    h = np.full(2 * total + 1, np.inf)
    np.minimum.at(h, (p + q)[ok], np.maximum(ice[:, None], lnd[None, :])[ok])
    h = np.minimum.accumulate(h)
    best = np.inf
    for a in np.flatnonzero(np.isfinite(atm)):
        best = min(best, max(h[a] + atm[a], np.min(ocn[: total - a + 1])))
    return best


@pytest.mark.parametrize("total", [128, 512, 2048])
def test_tsync_scan_matches_enumeration_on_probe_f(total):
    """Probe F's grid: A3's fits, Tsync from loose to tighter than any
    default split meets."""
    _, models = _paper_fits("1deg", one_degree())
    for tsync in (20.0, 5.0, 1.0, 0.2):
        alloc, objective = direct_layout(models, total, one_degree(), tsync=tsync)
        assert objective == _enumerated_optimum(models, total, one_degree(), tsync)
        assert _sync_gap(_host_times(models, None, alloc)) <= tsync
        _assert_admissible(alloc, total, one_degree(), Layout.HYBRID)


@pytest.mark.parametrize("minors", [False, True])
@pytest.mark.parametrize("free_ocean", [False, True])
def test_tsync_scan_matches_enumeration_on_keyed_specs(free_ocean, minors):
    """Medium keyed specs (30-80 nodes, gappy sweet spots, minors), where
    brute force over the MINLP is out of reach but the ice/land grid is not.
    Tsync runs from zero to loose; many draws bind."""
    binding = 0
    for key in range(12):
        rng = keyed_rng(SEED + key, "direct-layout-medium", free_ocean, minors)
        models, _, config, minor_models = _keyed_spec(key, Layout.HYBRID, free_ocean, minors)
        total = int(rng.integers(30, 81))
        config = CESMConfiguration(
            name="medium",
            description="keyed medium spec",
            ground_truth=config.ground_truth,
            atm_allowed=DiscreteNodeSet(
                tuple(int(v) for v in rng.choice(np.arange(1, total + 1), 12, replace=False))
            ),
            ocean_allowed=None if free_ocean else DiscreteNodeSet(
                tuple(int(v) for v in rng.choice(np.arange(1, total + 1), 12, replace=False))
            ),
            min_nodes=config.min_nodes,
        )
        free = direct_layout(models, total, config, minor_models=minor_models)
        for tsync in (0.0, *(float(v) for v in rng.uniform(0.0, 10.0, size=4))):
            expected = _enumerated_optimum(models, total, config, tsync, minor_models)
            found = direct_layout(
                models, total, config, tsync=tsync, minor_models=minor_models
            )
            if found is None:
                assert expected == np.inf
                continue
            alloc, objective = found
            assert objective == pytest.approx(expected, rel=1e-12)
            times = _host_times(models, minor_models, alloc)
            assert _sync_gap(times) <= tsync
            _assert_admissible(alloc, total, config, Layout.HYBRID)
            binding += objective > free[1]
    assert binding >= 8


def test_tsync_scan_at_full_intrepid():
    """1/8° ground truth at 40 960 nodes.  The unsynced optimum's own gap
    is under 5 s, so Tsync = 5 must keep it; a tighter Tsync costs time and
    holds the gap.  Either solve takes well under a tenth of a second."""
    config = eighth_degree()
    models = {c: truth.model for c, truth in config.ground_truth.items()}
    free_alloc, free = direct_layout(models, 40960, config)
    assert _sync_gap(_host_times(models, None, free_alloc)) <= 5.0
    for tsync in (5.0, 0.2):
        took = []
        for _ in range(5):
            tick = time.perf_counter()
            alloc, objective = direct_layout(models, 40960, config, tsync=tsync)
            took.append(time.perf_counter() - tick)
        assert min(took) <= 0.25
        assert _sync_gap(_host_times(models, None, alloc)) <= tsync
        _assert_admissible(alloc, 40960, config, Layout.HYBRID)
        assert objective >= free
    assert direct_layout(models, 40960, config, tsync=5.0) == (free_alloc, free)
    assert objective > free  # Tsync = 0.2 binds


def test_fine_tuning_pipeline_certifies():
    """With the minor components on, each rides its host's curve."""
    app = CESMApplication(one_degree(), include_minor_components=True)
    opt = HSLBOptimizer(app)
    plan = opt.run((32, 64, 128, 256, 512), 256, default_rng(11), execute=False)
    assert plan.solver_tier == "oa"
    assert abs(plan.provenance.direct_gap) <= DIRECT_GAP_TOL
