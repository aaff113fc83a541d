"""The in-house TRF is scipy's ``least_squares(method="trf")``, bit for bit.

``repro.perf.trf`` ports scipy's bounded Trust Region Reflective solver and
``perf.fitting`` runs every start through it.  The oracle is scipy itself:
each call a fit makes is replayed through ``scipy.optimize.least_squares``,
and the two must agree on the bytes of ``x`` and on ``cost``, ``status``
and ``nfev``.  The calls come from the ledger's own instances (every
``cesm_table3`` and ``fmo_ladder`` component, as the pipeline fits them,
under every loss, and with the refitter's age-decay weights) and from keyed
draws.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf.fitting as fitting
from repro.core.hslb import HSLBOptimizer
from repro.perf.fitting import _C_MAX, FIT_STARTS, fit_component, fit_performance_model
from repro.perf.model import PerformanceModel
from repro.perf.trf import least_squares_trf
from repro.util.rng import keyed_rng

REPO = pathlib.Path(__file__).resolve().parents[2]


def _scipy_trf(fun, jac, x0, lb, ub, *, max_nfev, loss, f_scale):
    from scipy.optimize import least_squares

    return least_squares(
        fun, x0, jac=jac, bounds=(lb, ub), method="trf",
        max_nfev=max_nfev, loss=loss, f_scale=f_scale,
    )


class _Oracle:
    """Stands in for ``fitting.least_squares_trf``: runs scipy and the port
    on the same call and fails on the first bit of disagreement."""

    def __init__(self):
        self.calls = 0

    def __call__(self, fun, jac, x0, lb, ub, **kwargs):
        self.calls += 1
        try:
            ref = _scipy_trf(fun, jac, x0, lb, ub, **kwargs)
        except ValueError:
            with pytest.raises(ValueError):
                least_squares_trf(fun, jac, x0, lb, ub, **kwargs)
            raise
        got = least_squares_trf(fun, jac, x0, lb, ub, **kwargs)
        where = f"x0={x0.tolist()} {kwargs}"
        assert got.x.tobytes() == ref.x.tobytes(), (where, got.x, ref.x)
        assert float(got.cost) == float(ref.cost), where
        assert (got.status, got.nfev) == (ref.status, ref.nfev), where
        return got


@pytest.fixture
def oracle(monkeypatch):
    replay = _Oracle()
    monkeypatch.setattr(fitting, "least_squares_trf", replay)
    return replay


@pytest.fixture(scope="module")
def catalogue():
    """The ledger's instance definitions, loaded from the harness itself."""
    path = REPO / "benchmarks/e2e/catalogue.py"
    spec = importlib.util.spec_from_file_location("e2e_catalogue", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)  # for its dataclasses
        spec.loader.exec_module(module)
        yield module


_BLOCKS = [("cesm", i) for i in range(6)] + [("fmo", i) for i in range(3)]


@pytest.mark.parametrize("kind,index", _BLOCKS, ids=[f"{k}{i}" for k, i in _BLOCKS])
def test_every_catalogue_component_fits_bit_identically(catalogue, oracle, kind, index):
    """The pipeline's own fits (five starts, one RNG stream), then every
    component under each loss, and weighted as the dynlb refitter weights a
    window (five starts each: the heuristic one and four random ones)."""
    blocks = catalogue.cesm_blocks() if kind == "cesm" else catalogue.fmo_blocks()
    block = blocks[index]
    opt = HSLBOptimizer(block.make_app())
    rng = block.plan_rng()
    suite = opt.gather(block.campaign, rng)
    opt.fit(suite, rng)
    pipeline_calls = oracle.calls
    assert pipeline_calls == FIT_STARTS * len(list(suite))

    for name in suite:
        for loss in ("linear", "huber", "soft_l1"):
            fit_component(suite[name], rng=np.random.default_rng(7), loss=loss)
        n, y = suite[name].arrays()
        decay = 0.92 ** np.arange(n.size)[::-1]
        fit_performance_model(n, y, rng=np.random.default_rng(3), weights=decay)
    assert oracle.calls == pipeline_calls + 4 * FIT_STARTS * len(list(suite))


@settings(max_examples=30, deadline=None)
@given(
    key=st.integers(0, 2**31 - 1),
    points=st.integers(2, 10),
    noise=st.sampled_from([0.0, 0.02, 0.1]),
    c=st.sampled_from([1.0, _C_MAX, None]),
    loss=st.sampled_from(["linear", "huber", "soft_l1"]),
    weighted=st.booleans(),
)
def test_keyed_draws_fit_bit_identically(key, points, noise, c, loss, weighted):
    """D = 2..10 noise-free and noisy observations, weighted or not, of a
    curve whose exponent sits on either bound (``c`` = 1 or ``_C_MAX``), or
    anywhere between, or below the fit's convex bound."""
    rng = keyed_rng(key, "trf", points, noise, c, loss, weighted)
    n = np.unique(rng.integers(1, 40_000, size=4 * points).astype(float))[:points]
    truth = PerformanceModel(
        a=float(rng.uniform(10.0, 1e5)),
        b=float(rng.uniform(0.0, 1e-2)),
        c=float(rng.uniform(0.0, _C_MAX)) if c is None else c,
        d=float(rng.uniform(0.0, 50.0)),
    )
    y = truth.time(n) * np.exp(rng.normal(0.0, noise, n.size))
    weights = rng.uniform(0.1, 1.0, n.size) if weighted else None
    replay = _Oracle()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "least_squares_trf", replay)
        try:
            fit_performance_model(n, y, rng=rng, loss=loss, weights=weights)
        except RuntimeError:  # every start refused: both sides agreed on each
            pass
    assert replay.calls == FIT_STARTS


def _amdahl_problem():
    n = np.array([1.0, 2.0, 4.0, 8.0])
    y = 100.0 / n + 1.0

    def fun(x):
        return y - (x[0] / n + x[1] * n ** x[2] + x[3])

    def jac(x):
        nc = n ** x[2]
        return np.column_stack(
            [-1.0 / n, -nc, -x[1] * np.log(n) * nc, -np.ones_like(n)]
        )

    lb = np.array([0.0, 0.0, 1.0, 0.0])
    ub = np.array([np.inf, np.inf, _C_MAX, np.inf])
    return fun, jac, lb, ub


@pytest.mark.parametrize("loss", ["linear", "huber", "soft_l1"])
def test_a_nonfinite_residual_at_the_start_raises_valueerror_from_both(loss):
    fun, jac, lb, ub = _amdahl_problem()

    def nan_fun(x):
        r = fun(x)
        r[0] = np.nan
        return r

    x0 = np.array([50.0, 1e-6, 1.5, 0.5])
    kwargs = dict(max_nfev=2000, loss=loss, f_scale=1.0)
    with pytest.raises(ValueError, match="not finite"):
        _scipy_trf(nan_fun, jac, x0, lb, ub, **kwargs)
    with pytest.raises(ValueError, match="not finite"):
        least_squares_trf(nan_fun, jac, x0, lb, ub, **kwargs)
    # A start outside the box is refused the same way.
    outside = np.array([50.0, 1e-6, 0.5, 0.5])
    with pytest.raises(ValueError, match="outside"):
        _scipy_trf(fun, jac, outside, lb, ub, **kwargs)
    with pytest.raises(ValueError, match="outside"):
        least_squares_trf(fun, jac, outside, lb, ub, **kwargs)


def test_importing_the_fit_loads_no_scipy_and_a_fit_never_loads_scipy_optimize():
    """scipy's optimizer is the test oracle only: a process that fits loads
    ``scipy.linalg`` (for ``gesdd``) on its first fit and nothing else."""
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "import repro.perf.fitting as f\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "out = {'import': scipy_modules()}\n"
        "n = np.array([1.0, 2.0, 4.0, 8.0, 16.0])\n"
        "f.fit_performance_model(n, 100.0 / n + 1.0)\n"
        "out['optimize'] = [m for m in scipy_modules() if m.startswith('scipy.optimize')]\n"
        "print(json.dumps(out))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out == {"import": [], "optimize": []}


def test_least_squares_is_imported_only_by_the_power_law_fit():
    """``perf/selection.py::fit_power_law`` keeps scipy (finite-difference
    Jacobian, no pipeline caller); nothing else under ``src/`` imports it."""
    users = []
    for path in sorted((REPO / "src/repro").rglob("*.py")):
        scopes = [(ast.parse(path.read_text()), "<module>")]
        while scopes:
            node, scope = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ImportFrom) and any(
                    alias.name == "least_squares" for alias in child.names
                ):
                    users.append(f"{path.relative_to(REPO / 'src')}::{scope}")
                inner = child.name if isinstance(child, ast.FunctionDef) else scope
                scopes.append((child, inner))
    assert users == ["repro/perf/selection.py::fit_power_law"]
