"""The in-house TRF is scipy's ``least_squares(method="trf")``, bit for bit.

``repro.perf.trf`` ports scipy's bounded Trust Region Reflective solver as
one entry, ``least_squares_trf_lockstep``: every start of a call is one
lane, the lanes step together, and the last few finish one after another
on the scalar loop, each on its own curve.  The oracle is scipy itself:
every start a fit solves is replayed through ``scipy.optimize.least_squares``
on its lane of the stacked residuals, and the two must agree on the bytes
of ``x`` and on ``cost``, ``status`` and ``nfev``; a start the port refuses,
scipy must refuse with the same message.  The starts come
from the ledger's own instances (every ``cesm_table3`` and ``fmo_ladder``
suite, as the pipeline fits it, under every loss, and with the refitter's
age-decay weights) and from keyed draws.
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
import repro.perf.trf as trf
from repro.core.hslb import HSLBOptimizer
from repro.perf.fitting import _C_MAX, FIT_LOSSES, FIT_STARTS, fit_suite
from repro.perf.model import PerformanceModel
from repro.perf.trf import least_squares_trf_lockstep
from repro.util.rng import keyed_rng

REPO = pathlib.Path(__file__).resolve().parents[2]


def _scipy_trf(fun, jac, x0, lb, ub, *, max_nfev, loss, f_scale):
    from scipy.optimize import least_squares

    return least_squares(
        fun, x0, jac=jac, bounds=(lb, ub), method="trf",
        max_nfev=max_nfev, loss=loss, f_scale=f_scale,
    )


def _assert_same(got, ref, where):
    assert got.x.tobytes() == ref.x.tobytes(), (where, got.x, ref.x)
    assert float(got.cost) == float(ref.cost), where
    assert (got.status, got.nfev) == (ref.status, ref.nfev), where


def _replay(fun, jac, x0, lb, ub, got, **kwargs):
    """Replay one start through scipy: ``got`` is the port's result, or the
    error it refused the start with."""
    where = f"x0={x0.tolist()} {kwargs}"
    try:
        ref = _scipy_trf(fun, jac, x0, lb, ub, **kwargs)
    except ValueError as refusal:
        assert isinstance(got, ValueError), (where, refusal)
        assert str(got) == str(refusal), where
        return
    assert not isinstance(got, Exception), (where, got)
    _assert_same(got, ref, where)


def _stacked_lane(fun, jac, i):
    """Lane ``i`` of the stacked callables, on a 1-D ``x``: the problem the
    oracle replays (the port's scalar loop runs the caller's own curve)."""
    lane = np.array([i])
    return lambda x: fun(x[None], lane)[0], lambda x: jac(x[None], lane)[0]


class _Oracle:
    """Stands in for the TRF in ``perf.fitting``: runs the port, then replays
    every start (every lane) through scipy."""

    def __init__(self):
        self.lanes = 0  # starts solved
        self.ticks = 0

    def __call__(self, fun, jac, lane, x0, lb, ub, *, max_nfev, loss, f_scale):
        results, ticks = least_squares_trf_lockstep(
            fun, jac, lane, x0, lb, ub, max_nfev=max_nfev, loss=loss, f_scale=f_scale
        )
        assert len(results) == len(x0)
        for i, got in enumerate(results):
            _replay(
                *_stacked_lane(fun, jac, i), x0[i], lb, ub, got,
                max_nfev=max_nfev, loss=loss, f_scale=float(f_scale[i]),
            )
        self.lanes += len(x0)
        self.ticks += ticks
        return results, ticks


@pytest.fixture
def oracle(monkeypatch):
    replay = _Oracle()
    monkeypatch.setattr(fitting, "least_squares_trf_lockstep", replay)
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


def _suite(catalogue, kind, index):
    blocks = catalogue.cesm_blocks() if kind == "cesm" else catalogue.fmo_blocks()
    block = blocks[index]
    opt = HSLBOptimizer(block.make_app())
    rng = block.plan_rng()
    return opt, opt.gather(block.campaign, rng), rng


def _decayed(suite, rng):
    """Every component weighted as the dynlb refitter weights a window."""
    problems = {}
    for name in suite:
        n, y = suite[name].arrays()
        decay = 0.92 ** np.arange(n.size)[::-1]
        problems[name] = fitting._problem(n, y, decay, rng, "linear")
    return problems


_BLOCKS = [("cesm", i) for i in range(6)] + [("fmo", i) for i in range(3)]


@pytest.mark.parametrize("kind,index", _BLOCKS, ids=[f"{k}{i}" for k, i in _BLOCKS])
def test_every_catalogue_component_fits_bit_identically(catalogue, oracle, kind, index):
    """The pipeline's own fit (five starts a component, one RNG stream),
    then the suite under each loss, and weighted as the dynlb refitter
    weights a window.  Every suite (CESM's 20 starts, FMO's 40-120) ticks
    in lockstep before its last lanes finish on their own curves."""
    opt, suite, rng = _suite(catalogue, kind, index)
    opt.fit(suite, rng)
    starts = FIT_STARTS * len(list(suite))
    assert oracle.lanes == starts
    assert oracle.ticks > 0

    for loss in FIT_LOSSES:
        fit_suite(suite, rng=np.random.default_rng(7), loss=loss)
    fitting._fit_problems(_decayed(suite, np.random.default_rng(3)), "linear")
    assert oracle.lanes == 5 * starts


def _keyed_problem(rng, points, noise, c, loss, weighted):
    """D observations, noise-free or noisy, weighted or not, of a curve whose
    exponent sits on either bound (``c`` = 1 or ``_C_MAX``), or anywhere
    between, or below the fit's convex bound; five starts from ``rng``."""
    n = np.unique(rng.integers(1, 40_000, size=4 * points).astype(float))[:points]
    truth = PerformanceModel(
        a=float(rng.uniform(10.0, 1e5)),
        b=float(rng.uniform(0.0, 1e-2)),
        c=float(rng.uniform(0.0, _C_MAX)) if c is None else c,
        d=float(rng.uniform(0.0, 50.0)),
    )
    y = truth.time(n) * np.exp(rng.normal(0.0, noise, n.size))
    weights = rng.uniform(0.1, 1.0, n.size) if weighted else None
    return fitting._problem(n, y, weights, rng, loss)


@settings(max_examples=30, deadline=None)
@given(
    key=st.integers(0, 2**31 - 1),
    points=st.integers(2, 10),
    noise=st.sampled_from([0.0, 0.02, 0.1]),
    c=st.sampled_from([1.0, _C_MAX, None]),
    loss=st.sampled_from(FIT_LOSSES),
    weighted=st.booleans(),
)
def test_keyed_draws_fit_bit_identically(key, points, noise, c, loss, weighted):
    """D = 2..10, one fit's five starts: every lane on the scalar loop."""
    rng = keyed_rng(key, "trf", points, noise, c, loss, weighted)
    problem = _keyed_problem(rng, points, noise, c, loss, weighted)
    replay = _Oracle()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "least_squares_trf_lockstep", replay)
        fitting._solve([problem], loss)  # a refused start: both sides agreed
    assert (replay.lanes, replay.ticks) == (FIT_STARTS, 0)


def _keyed_batch(key, components):
    """``components`` keyed problems of mixed D (2-9), loss and weights,
    each with its loss."""
    rng = keyed_rng(key, "lockstep", components)
    batch = []
    for _ in range(components):
        points = int(rng.integers(2, 10))
        noise = float(rng.choice([0.0, 0.02, 0.1]))
        c = [1.0, _C_MAX, None][int(rng.integers(3))]
        loss = FIT_LOSSES[int(rng.integers(3))]
        weighted = bool(rng.integers(2))
        batch.append((_keyed_problem(rng, points, noise, c, loss, weighted), loss))
    return batch


@settings(max_examples=4, deadline=None)
@given(
    key=st.integers(0, 2**31 - 1),
    components=st.integers(8, 30),
    handoff=st.booleans(),
)
def test_keyed_batches_fit_bit_identically_in_lockstep(key, components, handoff):
    """Batches of 8-30 keyed fits, grouped by D (and loss) as a suite groups
    them, every lane in lockstep; with ``handoff``, the last few lanes
    finish on the scalar loop, as in a suite."""
    groups = {}
    for problem, loss in _keyed_batch(key, components):
        groups.setdefault((problem.n.size, loss), []).append(problem)
    replay = _Oracle()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "least_squares_trf_lockstep", replay)
        if not handoff:
            mp.setattr(trf, "_HANDOFF_LANES", 0)
        for (_, loss), group in groups.items():
            outcomes, _ = fitting._solve(group, loss)
            assert [len(o) for o in outcomes] == [FIT_STARTS] * len(group)
    assert replay.lanes == FIT_STARTS * components


def _outcome_bytes(outcomes):
    return [
        None if r is None else (r.x.tobytes(), float(r.cost), r.status, r.nfev)
        for r in outcomes
    ]


@pytest.mark.parametrize("handoff", [True, False], ids=["handoff", "lockstep-only"])
def test_a_lane_gives_the_same_bytes_alone_in_its_suite_and_among_strangers(
    catalogue, monkeypatch, handoff
):
    """A lane's bytes depend on its own problem only: not on which lanes
    share its ticks, nor on when the others leave, nor on whether it ticks
    at all (a fit alone runs on the scalar loop)."""
    _, suite, _ = _suite(catalogue, "fmo", 1)
    rng = np.random.default_rng(11)
    problems = [fitting._problem(*suite[name].arrays(), None, rng, "huber") for name in suite]
    strangers = [
        p for p, loss in _keyed_batch(5, 40)
        if p.n.size == problems[0].n.size and loss == "huber"
    ]
    before, after = strangers[:2], strangers[2:]
    assert before and after
    expected = [_outcome_bytes(fitting._solve([p], "huber")[0][0]) for p in problems]
    if not handoff:
        monkeypatch.setattr(trf, "_HANDOFF_LANES", 0)
    in_suite, _ = fitting._solve(problems, "huber")
    among_strangers, _ = fitting._solve(before + problems[::-1] + after, "huber")
    among_strangers = among_strangers[len(before) :][: len(problems)][::-1]
    for i, problem in enumerate(problems):
        alone, _ = fitting._solve([problem], "huber")
        assert _outcome_bytes(alone[0]) == expected[i]
        assert _outcome_bytes(in_suite[i]) == expected[i]
        assert _outcome_bytes(among_strangers[i]) == expected[i]


def test_both_drivers_give_a_suite_byte_equal_fits(catalogue):
    """Both of the TRF's loops give the 24-fragment FMO suite byte-equal
    fits under every loss: the suite ticking in lockstep, and each component
    alone (five lanes, every one on the scalar loop)."""
    _, suite, _ = _suite(catalogue, "fmo", 2)
    for loss in FIT_LOSSES:
        rng = np.random.default_rng(13)
        problems = {name: fitting._problem(*suite[name].arrays(), None, rng, loss) for name in suite}
        outcomes, ticks = fitting._solve(list(problems.values()), loss)
        assert ticks > 0
        for (name, problem), lanes in zip(problems.items(), outcomes):
            (alone,), alone_ticks = fitting._solve([problem], loss)
            assert alone_ticks == 0
            lockstep, scalar = fitting._best(problem, lanes), fitting._best(problem, alone)
            assert lockstep == scalar, (name, loss)
            assert np.array(lockstep.model.as_tuple()).tobytes() == np.array(
                scalar.model.as_tuple()
            ).tobytes()


def _amdahl_lanes(nan_lane=None, inf_lane=None):
    """The Amdahl problem of :func:`_amdahl_problem` on every lane, as
    stacked callables and per-lane curves; ``nan_lane``'s residuals are NaN
    and ``inf_lane``'s Jacobian is infinite."""
    fun, jac, lb, ub = _amdahl_problem()

    def lane(i):
        def lane_fun(x):
            f = fun(x)
            if i == nan_lane:
                f[0] = np.nan
            return f

        def lane_jac(x):
            J = jac(x)
            if i == inf_lane:
                J[1, 2] = np.inf
            return J

        return lane_fun, lane_jac

    def stacked_fun(x, lanes):
        return np.array([lane(i)[0](xi) for xi, i in zip(x, lanes)])

    def stacked_jac(x, lanes):
        return np.array([lane(i)[1](xi) for xi, i in zip(x, lanes)])

    return stacked_fun, stacked_jac, lane, lb, ub


@pytest.mark.parametrize("handoff", [True, False], ids=["handoff", "lockstep-only"])
def test_refused_lanes_carry_scipys_reason(monkeypatch, handoff):
    """Lane by lane, the TRF refuses what scipy refuses, with scipy's
    message, and solves its other lanes as scipy does: a start outside the
    box, a non-finite residual at the start, a non-finite Jacobian at the
    SVD (in the lockstep, or on the scalar loop a lane finishes on)."""
    if not handoff:
        monkeypatch.setattr(trf, "_HANDOFF_LANES", 0)
    x0 = np.array([
        [50.0, 1e-6, 1.5, 0.5],
        [50.0, 1e-6, 0.5, 0.5],  # c below its bound
        [50.0, 1e-6, 1.5, 0.5],
        [50.0, 1e-6, 1.5, 0.5],
        [80.0, 1e-3, 2.0, 2.0],
    ])
    fun, jac, lane, lb, ub = _amdahl_lanes(nan_lane=2, inf_lane=3)
    for loss in FIT_LOSSES:
        results, ticks = least_squares_trf_lockstep(
            fun, jac, lane, x0, lb, ub,
            max_nfev=2000, loss=loss, f_scale=[1.0] * len(x0),
        )
        assert (ticks > 0) == (not handoff)
        assert [type(r).__name__ for r in results] == [
            "TRFResult", "ValueError", "ValueError", "ValueError", "TRFResult",
        ]
        for i, got in enumerate(results):
            _replay(
                *_stacked_lane(fun, jac, i), x0[i], lb, ub, got,
                max_nfev=2000, loss=loss, f_scale=1.0,
            )


def test_a_call_with_every_start_outside_the_box_evaluates_nothing():
    """With no start inside the box, every lane is refused with scipy's
    message and neither stacked callable runs (evaluated on no lanes, a
    callable may return shape ``(0,)``, which the finite check cannot
    reduce)."""
    fun, jac, lane, lb, ub = _amdahl_lanes()
    calls = []

    def counted(f):
        def wrapped(x, lanes):
            calls.append(len(lanes))
            return f(x, lanes)
        return wrapped

    assert fun(np.empty((0, 4)), np.arange(0)).shape == (0,)
    x0 = np.array([[50.0, 1e-6, 0.5, 0.5], [80.0, 1e-3, 2.0, -1.0]])  # c, d below
    results, ticks = least_squares_trf_lockstep(
        counted(fun), counted(jac), lane, x0, lb, ub,
        max_nfev=2000, loss="linear", f_scale=[1.0, 1.0],
    )
    assert calls == [] and ticks == 0
    assert [str(r) for r in results] == ["Initial guess is outside of provided bounds"] * 2


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
    """scipy raises, and the TRF refuses the lane with scipy's error."""
    fun, jac, lb, ub = _amdahl_problem()

    def nan_fun(x):
        r = fun(x)
        r[0] = np.nan
        return r

    def one_lane(fun, x0):
        def stacked(f):  # (k, m) / (k, m, n), also for k = 0
            shape = f(x0).shape
            return lambda x, lanes: np.array([f(xi) for xi in x]).reshape(len(x), *shape)

        [got], _ = least_squares_trf_lockstep(
            stacked(fun), stacked(jac), lambda i: (fun, jac), x0[None], lb, ub,
            max_nfev=2000, loss=loss, f_scale=[1.0],
        )
        return got

    x0 = np.array([50.0, 1e-6, 1.5, 0.5])
    kwargs = dict(max_nfev=2000, loss=loss, f_scale=1.0)
    with pytest.raises(ValueError, match="not finite"):
        _scipy_trf(nan_fun, jac, x0, lb, ub, **kwargs)
    got = one_lane(nan_fun, x0)
    assert isinstance(got, ValueError) and "not finite" in str(got)
    # A start outside the box is refused the same way.
    outside = np.array([50.0, 1e-6, 0.5, 0.5])
    with pytest.raises(ValueError, match="outside"):
        _scipy_trf(fun, jac, outside, lb, ub, **kwargs)
    got = one_lane(fun, outside)
    assert isinstance(got, ValueError) and "outside" in str(got)


def test_a_call_of_at_most_the_handoff_lanes_never_ticks():
    """Up to ``_HANDOFF_LANES`` lanes (one fit's five starts among them) go
    straight to the scalar loop: 0 lockstep ticks; one lane more ticks."""
    fun, jac, lane, lb, ub = _amdahl_lanes()
    starts = np.array([[50.0, 1e-6, 1.5, 0.5], [80.0, 1e-3, 2.0, 2.0]])
    for lanes in (FIT_STARTS, trf._HANDOFF_LANES, trf._HANDOFF_LANES + 1):
        x0 = starts[np.arange(lanes) % 2]
        results, ticks = least_squares_trf_lockstep(
            fun, jac, lane, x0, lb, ub,
            max_nfev=2000, loss="linear", f_scale=[1.0] * lanes,
        )
        assert all(isinstance(r, trf.TRFResult) for r in results)
        assert (ticks == 0) == (lanes <= trf._HANDOFF_LANES), lanes


def test_every_handed_off_lane_evaluates_on_its_own_curve(catalogue):
    """A lane that finishes on the scalar loop evaluates only the callables
    ``lane(i)`` returned for it, never a slice of the stacked ones: every
    lane's evaluations (``nfev``) are its stacked rows plus its own calls,
    and a suite's lockstep rows stop once its last lanes leave."""
    _, suite, _ = _suite(catalogue, "fmo", 0)
    rng = np.random.default_rng(5)
    problems = [fitting._problem(*suite[name].arrays(), None, rng, "linear") for name in suite]
    problems = [p for p in problems if p.n.size == problems[0].n.size]
    for group in (problems[:1], problems):
        lanes = [(p, x0) for p in group for x0 in p.starts]
        curves = fitting._Curves(
            np.array([p.n for p, _ in lanes]), np.array([p.y for p, _ in lanes]), None
        )
        stacked = np.zeros(len(lanes), dtype=int)
        own = np.zeros(len(lanes), dtype=int)

        def fun(x, rows):
            stacked[rows] += 1
            return curves.residuals(x, rows)

        def lane(i):
            residuals, jacobian = curves.lane(i)

            def counted(x):
                own[i] += 1
                return residuals(x)

            return counted, jacobian

        results, ticks = least_squares_trf_lockstep(
            fun, curves.jacobian, lane, np.array([x0 for _, x0 in lanes]),
            fitting._LOWER, fitting._UPPER,
            max_nfev=fitting._MAX_NFEV, loss="linear", f_scale=[1.0] * len(lanes),
        )
        nfev = np.array([r.nfev for r in results])
        assert (stacked + own == nfev).all()
        assert np.count_nonzero(own) <= trf._HANDOFF_LANES
        assert (stacked <= ticks + 1).all()
        if len(lanes) <= trf._HANDOFF_LANES:
            assert ticks == 0 and (stacked == 1).all()
        else:
            assert ticks > 0 and own.any()


def test_importing_the_fit_loads_no_scipy_and_a_fit_never_loads_scipy_optimize():
    """scipy's optimizer is the test oracle only: a process that fits loads
    the one LAPACK extension module (for ``gesdd``) on its first fit, and
    neither the ``scipy.optimize`` nor the ``scipy.linalg`` package."""
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
        "out['linalg'] = [m for m in scipy_modules() if m.startswith('scipy.linalg')]\n"
        "print(json.dumps(out))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, cwd=REPO, env={"PYTHONPATH": str(REPO / "src"), "PATH": ""},
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out.pop("linalg") in (["scipy.linalg._flapack"], ["scipy.linalg._flapack_64"])
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
