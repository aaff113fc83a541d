"""Tests for synthetic fragmented systems and SCF cost models."""

import pytest

from repro.fmo.molecules import (
    Fragment,
    FragmentedSystem,
    protein_like,
    water_cluster,
)
from repro.fmo.timing import (
    MachineCalibration,
    dimer_model,
    fragment_models,
    monomer_model,
)
from repro.perf.model import PerformanceModel
from repro.util.rng import default_rng


def test_fragment_validation():
    with pytest.raises(ValueError):
        Fragment(0, 0, (0, 0, 0))
    f = Fragment(0, 3, (0, 0, 0))
    assert f.n_basis > 3  # several basis functions per atom


def test_system_validation():
    with pytest.raises(ValueError, match="no fragments"):
        FragmentedSystem("x", ())
    frags = (Fragment(0, 3, (0, 0, 0)), Fragment(2, 3, (1, 0, 0)))
    with pytest.raises(ValueError, match="indices"):
        FragmentedSystem("x", frags)
    with pytest.raises(ValueError, match="scc"):
        FragmentedSystem("x", (Fragment(0, 3, (0, 0, 0)),), scc_iterations=0)


def test_water_cluster_properties(rng):
    sys_ = water_cluster(20, rng)
    assert sys_.n_fragments == 20
    assert all(f.n_atoms == 3 for f in sys_.fragments)
    assert sys_.size_diversity() == pytest.approx(0.0)
    assert sys_.n_atoms == 60


def test_protein_like_diversity(rng):
    sys_ = protein_like(16, rng)
    sizes = [f.n_atoms for f in sys_.fragments]
    assert min(sizes) >= 8 and max(sizes) <= 60
    assert sys_.size_diversity() > 0.2  # genuinely diverse tasks


def test_protein_like_validation(rng):
    with pytest.raises(ValueError):
        protein_like(0, rng)
    with pytest.raises(ValueError):
        protein_like(4, rng, min_atoms=10, max_atoms=5)


def test_dimer_pairs_respect_cutoff():
    frags = (
        Fragment(0, 3, (0.0, 0.0, 0.0)),
        Fragment(1, 3, (1.0, 0.0, 0.0)),       # close to 0
        Fragment(2, 3, (100.0, 0.0, 0.0)),     # far from both
    )
    sys_ = FragmentedSystem("t", frags)
    pairs = sys_.dimer_pairs()
    assert (0, 1) in pairs
    assert all(2 not in p for p in pairs)
    assert sys_.dimer_pairs(cutoff=1000.0) == ((0, 1), (0, 2), (1, 2))


def test_water_cluster_reproducible():
    a = water_cluster(10, default_rng(5))
    b = water_cluster(10, default_rng(5))
    assert a.fragments == b.fragments


# --- timing models -----------------------------------------------------------


def test_monomer_cost_scales_cubically():
    small = monomer_model(Fragment(0, 5, (0, 0, 0)))
    big = monomer_model(Fragment(1, 50, (0, 0, 0)))
    # a ~ basis^3: 10x atoms -> ~1000x scalable work.
    assert big.a / small.a == pytest.approx(1000.0, rel=0.05)


def test_dimer_cheaper_than_double_monomer():
    f1, f2 = Fragment(0, 20, (0, 0, 0)), Fragment(1, 20, (1, 0, 0))
    calib = MachineCalibration()
    d = dimer_model(f1, f2, calib)
    m = monomer_model(f1, calib)
    # Dimer has 2x the basis (8x the cubic work) but a convergence discount.
    assert d.a == pytest.approx(8 * m.a * calib.dimer_factor, rel=1e-9)


def test_calibration_validation():
    with pytest.raises(ValueError):
        MachineCalibration(kappa_fock=0.0)
    with pytest.raises(ValueError):
        MachineCalibration(dimer_factor=-1.0)


def test_total_fragment_model_consistent_with_workload(rng):
    """On one node a fragment's model is its work: its SCC iterations of
    monomer SCF plus half of every dimer it belongs to."""
    sys_ = protein_like(8, rng)
    load = {
        f.index: sys_.scc_iterations * monomer_model(f).time(1)
        for f in sys_.fragments
    }
    for i, j in sys_.dimer_pairs():
        cost = dimer_model(sys_.fragments[i], sys_.fragments[j]).time(1)
        load[i] += 0.5 * cost
        load[j] += 0.5 * cost
    models = fragment_models(sys_)
    for f in sys_.fragments:
        model = models[f.index]
        assert model.time(1) == pytest.approx(load[f.index], rel=1e-9)
        # More nodes, less time (monotone in the scalable regime).
        assert model.time(8) < model.time(1)


def test_total_fragment_model_is_convex(rng):
    sys_ = protein_like(5, rng)
    for model in fragment_models(sys_).values():
        assert model.is_convex


def _one_fragment_model(system, fragment):
    """A fragment's model on its own: a scan of every dimer pair for the
    ones it belongs to (O(F) pairs per fragment)."""
    m = monomer_model(fragment)
    a = system.scc_iterations * m.a
    b = system.scc_iterations * m.b
    d = system.scc_iterations * m.d
    for i, j in system.dimer_pairs():
        if fragment.index not in (i, j):
            continue
        dm = dimer_model(system.fragments[i], system.fragments[j])
        a += 0.5 * dm.a
        b += 0.5 * dm.b
        d += 0.5 * dm.d
    return PerformanceModel(a=a, b=b, c=1.0, d=d)


@pytest.mark.parametrize(
    "system",
    [protein_like(k, default_rng(k)) for k in (8, 16, 24)]
    + [water_cluster(16, default_rng(5))],
    ids=["protein-8", "protein-16", "protein-24", "water-16"],
)
def test_fragment_models_match_the_per_fragment_form(system):
    """One pass over the pairs builds every fragment's model bit for bit as
    a per-fragment scan does: same terms, added in the same order."""
    assert system.dimer_pairs()  # the systems have dimers to add
    models = fragment_models(system)
    assert list(models) == [f.index for f in system.fragments]
    for f in system.fragments:
        ref, got = _one_fragment_model(system, f), models[f.index]
        assert (got.a, got.b, got.c, got.d) == (ref.a, ref.b, ref.c, ref.d), f.index
