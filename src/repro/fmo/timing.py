"""Per-fragment SCF cost models.

The dominant FMO cost is each fragment's self-consistent-field solve.  For a
fragment with ``N`` basis functions on ``n`` nodes we model one SCF as

``T(n) = a/n + b*n + d`` with
``a ~ kappa_fock * N^3`` (Fock build + diagonalization, parallelizable),
``b ~ kappa_comm * N``  (collectives grow with node count),
``d ~ kappa_ser  * N^2`` (serial setup, I/O, diagonalization remainder)

— i.e. exactly the paper's Table II family, with physically-scaled
coefficients.  The constants below are calibrated to give seconds-scale
monomer times for 10–60-atom fragments, matching the granularity the SC 2012
paper reports on Blue Gene/P.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fmo.molecules import Fragment, FragmentedSystem
from repro.perf.model import PerformanceModel
from repro.util.validation import check_positive


@dataclass(frozen=True)
class MachineCalibration:
    """Machine-dependent cost constants (a synthetic Blue Gene/P)."""

    kappa_fock: float = 4.0e-6   # s per basis^3, single node
    kappa_comm: float = 6.0e-6   # s per basis per node
    kappa_serial: float = 2.0e-5  # s per basis^2
    dimer_factor: float = 0.35   # dimer SCF converges faster than monomer SCC

    def __post_init__(self) -> None:
        check_positive("kappa_fock", self.kappa_fock)
        check_positive("kappa_comm", self.kappa_comm, strict=False)
        check_positive("kappa_serial", self.kappa_serial, strict=False)
        check_positive("dimer_factor", self.dimer_factor)


def monomer_model(
    fragment: Fragment, calib: MachineCalibration | None = None
) -> PerformanceModel:
    """Performance model for one monomer SCF iteration of ``fragment``."""
    calib = calib or MachineCalibration()
    nb = float(fragment.n_basis)
    return PerformanceModel(
        a=calib.kappa_fock * nb**3,
        b=calib.kappa_comm * nb,
        c=1.0,
        d=calib.kappa_serial * nb**2,
    )


def dimer_model(
    frag_i: Fragment, frag_j: Fragment, calib: MachineCalibration | None = None
) -> PerformanceModel:
    """Performance model for the (i,j) dimer SCF.

    The dimer carries both fragments' basis sets; a shared-work discount
    reflects its single (non-SCC-iterated) convergence.
    """
    calib = calib or MachineCalibration()
    nb = float(frag_i.n_basis + frag_j.n_basis)
    return PerformanceModel(
        a=calib.dimer_factor * calib.kappa_fock * nb**3,
        b=calib.kappa_comm * nb,
        c=1.0,
        d=calib.dimer_factor * calib.kappa_serial * nb**2,
    )


def fragment_models(system: FragmentedSystem) -> dict[int, PerformanceModel]:
    """Scaling model of every fragment's FULL per-run work (monomers + dimers).

    This is what HSLB fits/optimizes: ``T_i(n_i)`` for the complete set of
    tasks fragment ``i`` contributes to a run — its SCC iterations of
    monomer SCF plus half of every dimer it belongs to.  One pass over
    :meth:`FragmentedSystem.dimer_pairs` builds them all, each fragment's
    dimer terms added in pair order.
    """
    it = system.scc_iterations
    terms = []
    for fragment in system.fragments:
        m = monomer_model(fragment)
        terms.append([it * m.a, it * m.b, it * m.d])
    for i, j in system.dimer_pairs():
        dm = dimer_model(system.fragments[i], system.fragments[j])
        for k in (i, j):
            terms[k][0] += 0.5 * dm.a
            terms[k][1] += 0.5 * dm.b
            terms[k][2] += 0.5 * dm.d
    return {
        f.index: PerformanceModel(a=a, b=b, c=1.0, d=d)
        for f, (a, b, d) in zip(system.fragments, terms)
    }
