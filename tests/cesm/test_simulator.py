"""Tests for the CESM execution simulator."""

import numpy as np
import pytest

from repro.cesm.grids import eighth_degree, one_degree
from repro.cesm.layouts import Layout, layout_total_time
from repro.cesm.simulator import CESMSimulator
from repro.core.spec import Allocation
from repro.util.rng import default_rng


@pytest.fixture
def sim():
    return CESMSimulator(one_degree())


ALLOC_128 = Allocation({"lnd": 24, "ice": 80, "atm": 104, "ocn": 24})


def test_component_time_positive_and_noisy(sim, rng):
    t1 = sim.component_time("atm", 104, rng)
    t2 = sim.component_time("atm", 104, rng)
    assert t1 > 0 and t2 > 0
    assert t1 != t2  # run-to-run jitter


def test_component_time_validation(sim, rng):
    with pytest.raises(KeyError):
        sim.component_time("warp", 10, rng)
    with pytest.raises(ValueError):
        sim.component_time("atm", 0, rng)


def test_true_time_noise_free(sim):
    assert sim.true_component_time("atm", 104) == sim.true_component_time("atm", 104)


def test_execute_matches_layout_semantics(sim, rng):
    result = sim.execute(ALLOC_128, rng)
    assert set(result.component_times) == {"lnd", "ice", "atm", "ocn"}
    assert result.total_time == pytest.approx(
        layout_total_time(Layout.HYBRID, result.component_times)
    )
    assert result.metadata["layout"] == "HYBRID"
    assert result.metadata["footprint_nodes"] == 128
    # The excluded minor components surface in metadata only (§II).
    assert 0 < result.metadata["cpl_time"] < 0.1 * result.total_time
    assert 0 < result.metadata["rtm_time"] < 0.1 * result.total_time


def test_execute_reproducible_with_same_seed(sim):
    r1 = sim.execute(ALLOC_128, default_rng(7))
    r2 = sim.execute(ALLOC_128, default_rng(7))
    assert r1.component_times == r2.component_times


def test_execute_table3_manual_row_shape(sim):
    """Executing the paper's manual 1deg/128 allocation lands near its
    published times (Table III block 1, manual columns)."""
    times = np.array(
        [sim.execute(ALLOC_128, default_rng(s)).total_time for s in range(10)]
    )
    assert abs(times.mean() - 416.0) / 416.0 < 0.06


def test_validate_allocation_layout1_nesting(sim):
    bad = Allocation({"lnd": 60, "ice": 60, "atm": 104, "ocn": 24})
    with pytest.raises(ValueError, match="ice\\+lnd"):
        sim.execute(bad, default_rng(0))


def test_validate_allocation_machine_capacity():
    cfg = one_degree()
    sim = CESMSimulator(cfg)
    too_big = Allocation(
        {"lnd": 10, "ice": 10, "atm": cfg.machine_nodes, "ocn": 768}
    )
    with pytest.raises(ValueError, match="machine"):
        sim.execute(too_big, default_rng(0))


def test_validate_allocation_minimums():
    sim = CESMSimulator(eighth_degree())
    tiny = Allocation({"lnd": 1, "ice": 64, "atm": 128, "ocn": 480})
    with pytest.raises(ValueError, match="below minimum"):
        sim.execute(tiny, default_rng(0))


def test_missing_component_rejected(sim):
    with pytest.raises(ValueError, match="missing component"):
        sim.validate_allocation(Allocation({"atm": 10, "ocn": 4, "ice": 4}))


def test_default_split_valid_across_sizes(sim):
    for total in (32, 128, 512, 2048):
        alloc = sim.default_split(total)
        sim.validate_allocation(alloc)
        assert alloc["atm"] + alloc["ocn"] <= total


def test_default_split_respects_constrained_ocean():
    sim = CESMSimulator(eighth_degree())
    alloc = sim.default_split(8192)
    assert alloc["ocn"] in sim.config.ocean_allowed.values


def test_default_split_too_small(sim):
    with pytest.raises(ValueError):
        sim.default_split(2)


def test_benchmark_produces_suite(sim, rng):
    suite = sim.benchmark([64, 128, 512], rng, probe_extremes=False)
    assert set(suite.components) == {"lnd", "ice", "atm", "ocn"}
    for comp in suite.components:
        assert len(suite[comp]) == 3


def test_benchmark_probe_adds_ocean_heavy_run(sim, rng):
    plain = sim.benchmark([64, 128, 512], rng, probe_extremes=False)
    probed = sim.benchmark([64, 128, 512], rng, probe_extremes=True)
    assert len(probed["ocn"]) == len(plain["ocn"]) + 1
    # The probe brackets the ocean range: its largest sampled count clearly
    # exceeds the default splits' (which target ~25% of the machine).
    assert probed["ocn"].node_range[1] > plain["ocn"].node_range[1]


def test_ocean_heavy_split_valid(sim):
    alloc = sim.ocean_heavy_split(512)
    sim.validate_allocation(alloc)
    assert alloc["ocn"] > sim.default_split(512)["ocn"]


def test_benchmark_replicates(sim, rng):
    suite = sim.benchmark([64, 128], rng, runs_per_count=3, probe_extremes=False)
    assert len(suite["atm"]) == 6
    with pytest.raises(ValueError):
        sim.benchmark([64], rng, runs_per_count=0)


def test_benchmark_times_follow_ground_truth(sim, rng):
    suite = sim.benchmark([64, 128, 512, 2048], rng)
    for comp in suite.components:
        for obs in suite[comp]:
            truth = sim.true_component_time(comp, obs.nodes)
            assert abs(obs.seconds / truth - 1.0) < 0.4  # within noise envelope


def test_eighth_degree_off_spot_penalty_visible():
    sim = CESMSimulator(eighth_degree(constrained_ocean=False))
    on_spot = sim.true_component_time("ocn", 19460)
    # Base curve value at an off-spot count vs its penalized truth.
    base = sim.config.ground_truth["ocn"].model.time(11880)
    penalized = sim.true_component_time("ocn", 11880)
    assert penalized >= base  # penalty only slows down
    assert on_spot < base  # sanity: more nodes, faster base curve


def _split_as_before(sim, total_nodes, heavy):
    """The splits as they read when they scanned ``ocean_values_upto``."""
    cfg = sim.config
    if not heavy and total_nodes < 4:
        raise ValueError(f"total_nodes too small to split: {total_nodes}")
    share = 0.62 if heavy else 0.45
    ocn_values = cfg.ocean_values_upto(max(2, int(share * total_nodes)))
    if not ocn_values:
        raise ValueError("no admissible ocean count fits")
    if heavy:
        ocn = ocn_values[-1]
    else:
        target_ocn = 0.25 * total_nodes
        ocn = max((v for v in ocn_values if v <= target_ocn), default=ocn_values[0])
    atm = cfg.atm_allowed.below(total_nodes - ocn)
    ice = max(cfg.component_min_nodes("ice"), int(0.55 * atm))
    lnd = max(cfg.component_min_nodes("lnd"), atm - ice)
    if ice + lnd > atm:
        ice = max(cfg.component_min_nodes("ice"), atm - lnd)
    return Allocation({"lnd": lnd, "ice": ice, "atm": atm, "ocn": ocn})


def _outcome(split, total_nodes):
    try:
        return dict(split(total_nodes))
    except ValueError:
        return "no split"


def _split_sizes():
    """Every gather-campaign node count, every A4 machine size, the ledger's
    Table III sizes, and a dense sweep of small and strided large sizes."""
    import inspect

    from repro.experiments.ablations import run_solver_scaling
    from repro.experiments.paper_data import BENCHMARK_CAMPAIGN

    a4 = inspect.signature(run_solver_scaling).parameters["node_counts"].default
    sizes = {n for campaign in BENCHMARK_CAMPAIGN.values() for n in campaign}
    sizes |= set(a4) | {128, 2048, 8192, 32768}
    sizes |= set(range(0, 1200)) | set(range(1200, 41000, 97))
    return sorted(sizes)


@pytest.mark.parametrize(
    "config",
    [one_degree(), eighth_degree(), eighth_degree(constrained_ocean=False)],
    ids=["1deg", "eighth", "eighth-freeocn"],
)
def test_splits_pick_the_ocean_they_picked_by_scanning(config):
    """``default_split`` / ``ocean_heavy_split`` bisect the sweet spots (or
    do arithmetic on a free ocean) and answer what the scan answered: the
    same allocation, or the same refusal, at every size."""
    sim = CESMSimulator(config)
    for total in _split_sizes():
        for heavy, split in ((False, sim.default_split), (True, sim.ocean_heavy_split)):
            before = _outcome(lambda n: _split_as_before(sim, n, heavy), total)
            assert _outcome(split, total) == before, (config.name, total, heavy)
