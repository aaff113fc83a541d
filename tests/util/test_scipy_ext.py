"""A pipeline process loads scipy's three compiled routines, nothing around them.

HiGHS, SLSQP and LAPACK's ``gesdd`` come from :func:`scipy_extension`, so
``scipy.optimize`` and ``scipy.linalg`` never run their ``__init__`` in a
pipeline process.  The checks that matter run in fresh interpreters: pytest's
own process imported all of scipy long ago.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

from repro.perf.trf import _gesdd
from repro.util.scipy_ext import scipy_extension

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Runs one CESM block and one FMO block of the ledger (``1deg-2048``,
#: ``protein-8@64``) and prints a digest of every answer: allocations,
#: predicted times, fitted parameters and the solutions, floats by ``repr``
#: (which round-trips, so equal text is equal bytes).
_PIPELINES = """
import hashlib, json, sys
import numpy as np
from repro.cesm.app import CESMApplication
from repro.cesm.grids import one_degree
from repro.core.hslb import HSLBOptimizer
from repro.fmo.app import FMOApplication
from repro.fmo.molecules import protein_like

def answer(result):
    fits = {k: (vars(f.model), f.r_squared, f.rss) for k, f in result.fits.items()}
    s = result.solution
    return repr((
        dict(result.allocation.nodes), result.predicted_times,
        result.predicted_total, sorted(fits.items()),
        s.status.name, sorted(s.values.items()), s.objective, s.bound,
    ))

seed = 20120427
cesm = HSLBOptimizer(CESMApplication(one_degree())).run(
    (32, 64, 128, 256, 512, 1024, 2048), 2048, np.random.default_rng([seed, 1, 1]),
    execute=False,
)
system = protein_like(8, np.random.default_rng([seed, 4, 0]))
fmo = HSLBOptimizer(FMOApplication(system)).run(
    (1, 2, 4, 8, 16, 32), 64, np.random.default_rng([seed, 1, 0]), execute=False,
)
out = {
    "digest": hashlib.sha256((answer(cesm) + answer(fmo)).encode()).hexdigest(),
    "loaded": sorted(
        m for m in ("scipy.optimize", "scipy.linalg", "scipy.sparse", "asyncio")
        if m in sys.modules
    ) + sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "service"]),
}
"""


def _fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON line last."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=300, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_pipeline_loads_neither_scipy_package_nor_the_serving_tier():
    """Two blocks through ``HSLBOptimizer.run``: no ``scipy.optimize``,
    ``scipy.linalg``, ``scipy.sparse``, ``asyncio`` or ``repro.service``
    afterwards; the answers are byte-equal to those of a process that
    imported both scipy packages first; and a public ``import
    scipy.optimize`` afterwards reuses the loaded modules and still
    answers."""
    after = """
    import scipy.optimize, scipy.linalg
    from scipy.linalg.lapack import get_lapack_funcs
    from repro.perf.trf import _gesdd
    names = ("optimize._highspy._core", "optimize._slsqplib", "linalg._flapack")
    out["reused"] = [sys.modules["scipy." + n] is loaded[n] for n in names]
    out["gesdd"] = get_lapack_funcs(
        ("gesdd", "gesdd_lwork"), dtype=np.float64, ilp64="preferred"
    )[0] is _gesdd(10, 4)[0]
    lp = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
    nlp = scipy.optimize.minimize(
        lambda x: (x[0] - 1.0) ** 2 + (x[1] - 2.0) ** 2, [0.0, 0.0], method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda x: 2.0 - x[0] - x[1]}],
    )
    svd = scipy.linalg.svd(np.array([[3.0, 0.0], [0.0, 4.0]]), compute_uv=False)
    out["answers"] = [lp.status, lp.fun, nlp.success, svd.tolist()]
    """
    snapshot = """
    loaded = {n: sys.modules["scipy." + n]
              for n in ("optimize._highspy._core", "optimize._slsqplib", "linalg._flapack")}
    """
    lean = _fresh(
        _PIPELINES + textwrap.dedent(snapshot) + textwrap.dedent(after)
        + "print(json.dumps(out))\n"
    )
    full = _fresh(
        "import scipy.optimize, scipy.linalg\n" + _PIPELINES + "print(json.dumps(out))\n"
    )

    assert lean["loaded"] == []
    assert full["loaded"] == ["scipy.linalg", "scipy.optimize", "scipy.sparse"]
    assert lean["digest"] == full["digest"]
    assert lean["reused"] == [True, True, True]
    assert lean["gesdd"] is True
    status, fun, converged, singular = lean["answers"]
    assert status == 0 and fun == pytest.approx(1.0)
    assert converged is True
    assert singular == [4.0, 3.0]


def test_the_fit_runs_the_gesdd_scipy_linalg_svd_runs():
    """The loaded routine *is* ``get_lapack_funcs``'s, and its ``lwork`` is
    ``_compute_lwork``'s for every ``(m + n, n)`` shape a fit can ask for."""
    gesdd, gesdd_lwork = get_lapack_funcs(
        ("gesdd", "gesdd_lwork"), dtype=np.float64, ilp64="preferred"
    )
    for n in range(1, 5):
        for m in range(1, 65):
            routine, lwork = _gesdd(m + n, n)
            assert routine is gesdd
            assert lwork == _compute_lwork(
                gesdd_lwork, m + n, n, compute_uv=True, full_matrices=False
            )


def test_a_missing_extension_file_is_an_import_error_naming_it():
    with pytest.raises(ImportError, match="no compiled module '_absent' in .*optimize"):
        scipy_extension("optimize._absent")
    assert "scipy.optimize._absent" not in sys.modules


def test_a_module_already_loaded_is_returned_as_it_is():
    import scipy.optimize._slsqplib as slsqplib

    assert scipy_extension("optimize._slsqplib") is slsqplib
