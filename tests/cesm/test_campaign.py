"""Tests for the §III-C benchmark-campaign planner."""

import pytest

from repro.cesm.app import CESMApplication
from repro.cesm.campaign import MEMORY_MODELS, MemoryModel, plan_campaign
from repro.cesm.grids import eighth_degree, one_degree
from repro.core.hslb import HSLBOptimizer
from repro.util.rng import default_rng


def test_memory_model_floor():
    m = MemoryModel(resident_gb=48.0, replicated_gb=0.25)
    # 48 / (2 - 0.25) = 27.4 -> 28 nodes.
    assert m.min_nodes() == 28
    assert m.min_nodes(node_memory_gb=8.0) == 7
    with pytest.raises(ValueError, match="exceeds node memory"):
        MemoryModel(resident_gb=1.0, replicated_gb=4.0).min_nodes()


def test_memory_model_validation():
    with pytest.raises(ValueError):
        MemoryModel(resident_gb=0.0)


def test_plan_campaign_brackets_range():
    cfg = one_degree()
    counts = plan_campaign(cfg, max_nodes=2048)
    assert len(counts) >= 5
    assert counts[0] == MEMORY_MODELS["1deg"].min_nodes()
    assert counts[-1] == 2048
    # Geometric spacing: ratios between consecutive points are similar.
    ratios = [counts[i + 1] / counts[i] for i in range(len(counts) - 1)]
    assert max(ratios) / min(ratios) < 4.0


def test_plan_campaign_eighth_floor_is_large():
    counts = plan_campaign(eighth_degree(), max_nodes=32768)
    assert counts[0] >= 1000  # 1/8 degree cannot run on a handful of nodes
    assert counts[-1] == 32768


def test_plan_campaign_validation():
    with pytest.raises(ValueError, match="at least 5"):
        plan_campaign(one_degree(), points=3)
    with pytest.raises(ValueError, match="memory floor"):
        plan_campaign(one_degree(), max_nodes=4)


def test_plan_campaign_more_points():
    counts = plan_campaign(one_degree(), max_nodes=2048, points=8)
    assert len(counts) >= 8
    assert counts == tuple(sorted(set(counts)))


def test_planned_campaign_drives_pipeline():
    """The planned counts feed straight into gather/fit/solve."""
    cfg = one_degree()
    counts = plan_campaign(cfg, max_nodes=2048)
    app = CESMApplication(cfg)
    result = HSLBOptimizer(app).run(list(counts), 128, default_rng(8))
    assert result.solution.status.is_ok
    for fit in result.fits.values():
        assert fit.r_squared > 0.97
    # Interpolation guaranteed: target inside the campaign bracket.
    assert counts[0] <= 128 <= counts[-1]
