"""Tests for CESM configurations and admissible node sets."""

import importlib.util
import pathlib
import sys

import pytest

from repro.cesm.grids import (
    EIGHTH_DEGREE_OCEAN_SPOTS,
    INTREPID_NODES,
    eighth_degree,
    one_degree,
)
from repro.core.builder import DiscreteNodeSet
from repro.util.rng import keyed_rng


def test_intrepid_size_matches_paper():
    # "40,960 quad-core processors" (§I) used as nodes.
    assert INTREPID_NODES == 40960


def test_one_degree_ocean_set_shape():
    cfg = one_degree()
    values = cfg.ocean_allowed.values
    assert values[0] == 2
    assert 480 in values
    assert 768 in values
    assert values[-1] == 768
    assert all(v % 2 == 0 for v in values)
    # {2,4,...,480} has 240 members, plus 768.
    assert len(values) == 241


def test_one_degree_atm_set_shape():
    cfg = one_degree()
    a = cfg.atm_allowed
    assert 1 in a and 1638 in a and 1664 in a
    assert 1650 not in a
    assert len(a) == 1639
    # Exactly two runs: [1,1638] and [1664,1664].
    assert a.runs() == [(1, 1638), (1664, 1664)]


def test_eighth_degree_constrained_ocean():
    cfg = eighth_degree()
    assert cfg.ocean_allowed.values == tuple(sorted(EIGHTH_DEGREE_OCEAN_SPOTS))
    assert cfg.ocean_values_upto(8192) == (480, 512, 2356, 3136, 4564, 6124)


def test_eighth_degree_unconstrained_ocean():
    cfg = eighth_degree(constrained_ocean=False)
    assert cfg.ocean_allowed is None
    vals = cfg.ocean_values_upto(1000)
    assert vals[0] == cfg.component_min_nodes("ocn")
    assert vals[-1] == 1000


def test_min_nodes_defaults():
    cfg = one_degree()
    assert cfg.component_min_nodes("ocn") == 2
    assert cfg.component_min_nodes("lnd") == 1


# --- DiscreteNodeSet itself -------------------------------------------------


def test_discrete_set_sorted_dedup():
    s = DiscreteNodeSet((4, 2, 4, 8))
    assert s.values == (2, 4, 8)
    assert s.min == 2 and s.max == 8
    assert len(s) == 3


def test_discrete_set_validation():
    with pytest.raises(ValueError):
        DiscreteNodeSet(())
    with pytest.raises(ValueError):
        DiscreteNodeSet((0, 1))


def test_runs_decomposition():
    s = DiscreteNodeSet((1, 2, 3, 7, 8, 12))
    assert s.runs() == [(1, 3), (7, 8), (12, 12)]


def test_runs_single_contiguous():
    assert DiscreteNodeSet.contiguous(5, 9).runs() == [(5, 9)]


def test_even_range_runs_are_singletons():
    s = DiscreteNodeSet.even_range(2, 10)
    assert s.runs() == [(2, 2), (4, 4), (6, 6), (8, 8), (10, 10)]


def test_nearest_and_below():
    s = DiscreteNodeSet((4, 16, 64))
    assert s.nearest(20) == 16
    assert s.nearest(40) == 16  # tie 16/64? |40-16|=24,|40-64|=24 -> smaller
    assert s.below(60) == 16
    assert s.below(3) == 4  # nothing below: smallest member
    assert s.below(64) == 64


def test_contains():
    s = DiscreteNodeSet.even_range(2, 8)
    assert 4 in s and 5 not in s


def _runs_by_scan(values):
    """Maximal runs of consecutive integers, one pass (``runs``' reference)."""
    runs = []
    for v in values:
        if runs and v == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return runs


@pytest.mark.parametrize("case", range(20))
def test_lookups_agree_with_a_linear_scan(case):
    """Bisect lookups against the scans they replaced, ties included."""
    rng = keyed_rng(92, "node-set", case)
    values = tuple(rng.choice(range(1, 60), size=rng.integers(1, 25)).tolist())
    s = DiscreteNodeSet(values)
    probes = [*range(0, 62), *(v + 0.5 for v in range(0, 61)), *rng.uniform(-5, 70, 40)]
    for n in probes:
        assert s.nearest(n) == min(s.values, key=lambda v: (abs(v - n), v))
        assert s.below(n) == max((v for v in s.values if v <= n), default=s.min)
        assert (n in s) == (int(n) in set(s.values))
    assert s.runs() == _runs_by_scan(s.values)
    # Long runs too: the galloping search must land on every run's end.
    lo = int(rng.integers(1, 500))
    long = DiscreteNodeSet.contiguous(
        lo, lo + int(rng.integers(0, 3000)), extras=rng.integers(1, 5000, 30).tolist()
    )
    assert long.runs() == _runs_by_scan(long.values)


# --- sets handed over sorted ------------------------------------------------


def _validated(values):
    """The construction every set used to take: sort and dedupe."""
    return DiscreteNodeSet(tuple(values)).values


@pytest.mark.parametrize(
    "make, old",
    [
        (lambda: DiscreteNodeSet.contiguous(1, 1638, extras=(1664,)),
         lambda: (*range(1, 1639), 1664)),
        (lambda: DiscreteNodeSet.even_range(2, 480, extras=(768,)),
         lambda: (*range(2, 481, 2), 768)),
        (lambda: DiscreteNodeSet.contiguous(5, 9, extras=(12.0, 11, 30)),
         lambda: (*range(5, 10), 12.0, 11, 30)),
        (lambda: DiscreteNodeSet.contiguous(5, 9, extras=(3, 7, 9, 40)),
         lambda: (*range(5, 10), 3, 7, 9, 40)),
        (lambda: DiscreteNodeSet.even_range(4, 2, extras=(6,)), lambda: (6,)),
        (lambda: DiscreteNodeSet.contiguous(5, 9), lambda: range(5, 10)),
    ],
)
def test_range_constructors_equal_the_sorting_construction(make, old):
    s = make()
    assert s.values == _validated(old())
    assert all(type(v) is int for v in s.values)


def test_range_constructors_still_validate():
    with pytest.raises(ValueError):
        DiscreteNodeSet.contiguous(0, 4)
    with pytest.raises(ValueError):
        DiscreteNodeSet.even_range(4, 2)


def test_up_to_is_the_filtered_set():
    s = DiscreteNodeSet((2, 4, 8, 16))
    assert s.up_to(1) is None
    assert s.up_to(8).values == (2, 4, 8)
    assert s.up_to(9.5).values == (2, 4, 8)
    assert s.up_to(10**6).values == s.values


@pytest.fixture(scope="module")
def ledger_blocks():
    """The ledger's Table III blocks, loaded from the harness itself."""
    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/e2e/catalogue.py"
    spec = importlib.util.spec_from_file_location("e2e_catalogue", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # for its dataclasses
        spec.loader.exec_module(module)
        yield module.cesm_blocks()


def test_every_ledger_blocks_sets_equal_the_old_construction(ledger_blocks):
    """Each Table III block's sweet-spot sets, and the sets the builder
    trims them to at the block's budget, are what sorting gave."""
    from repro.cesm.layouts import Layout, formulate_layout
    from repro.perf.model import PerformanceModel

    models = {c: PerformanceModel(a=1000.0, d=1.0) for c in ("lnd", "ice", "atm", "ocn")}
    for block in ledger_blocks:
        config = block.make_app().config
        problem = formulate_layout(models, block.total_nodes, config, layout=Layout.HYBRID)
        sos = {s.name: s for s in problem.sos1_sets}
        for comp, allowed in (("atm", config.atm_allowed), ("ocn", config.ocean_allowed)):
            if allowed is None:
                continue
            assert allowed.values == _validated(allowed.values), block.key
            cap = block.total_nodes
            trimmed = allowed.up_to(cap)
            assert trimmed.values == _validated(v for v in allowed.values if v <= cap)
            runs = trimmed.runs()
            if len(runs) > 1:
                assert sos[f"sos_{comp}"].weights == tuple(float(lo) for lo, _ in runs)
            else:
                assert f"sos_{comp}" not in sos
