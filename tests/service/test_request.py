"""Fingerprint stability: same problem, same digest — and only then.

Property tests drive the canonicalization through reorderings and
last-bit float noise (below :data:`PARAM_SIG_DIGITS`), which must not move
the fingerprint, and through semantic changes (budget, objective, bounds,
tolerances), which must.  The identity is memoised on the request, so the
same properties are checked against a from-scratch ``_digest(canonical())``,
across ``pickle`` / ``copy`` / ``dataclasses.replace``, and against the
caller mutating the dict it built the request from.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minlp.bnb import BnBOptions
from repro.perf.model import PerformanceModel
from repro.service import ComponentSpec, ServiceRequestError, SolveRequest
from repro.service.request import PARAM_SIG_DIGITS, _digest, _sig
from repro.service.solver import solve_request

from tests.minlp.test_engine_independence import _request_pool as ledger_pool
from tests.service.conftest import make_request

# Fitted curve parameters live in these ranges; keep them away from zero so
# relative perturbations stay meaningful.
_params = st.fixed_dictionaries(
    {
        "a": st.floats(1.0, 1e6),
        "b": st.floats(0.0, 10.0),
        "c": st.floats(0.5, 2.0),
        "d": st.floats(0.0, 100.0),
    }
)
_names = st.lists(
    st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8),
    min_size=2,
    max_size=5,
    unique=True,
)


def _request_from(names, params_list, total_nodes):
    components = {
        name: ComponentSpec(model=PerformanceModel(**params))
        for name, params in zip(names, params_list)
    }
    return SolveRequest(components=components, total_nodes=total_nodes)


def _scratch_identity(request: SolveRequest) -> tuple[str, str]:
    """``(fingerprint, family key)`` recomputed from a fresh canonical pass."""
    payload = request.canonical()
    fingerprint = _digest(payload)
    del payload["total_nodes"]
    return fingerprint, _digest(payload)


def _identity(request: SolveRequest) -> tuple[str, str]:
    return request.fingerprint(), request.family_key()


@settings(max_examples=50, deadline=None)
@given(
    names=_names,
    data=st.data(),
    total=st.integers(8, 4096),
    seed=st.randoms(use_true_random=False),
)
def test_fingerprint_invariant_to_component_order(names, data, total, seed):
    params_list = [data.draw(_params) for _ in names]
    base = _request_from(names, params_list, total)
    shuffled = list(zip(names, params_list))
    seed.shuffle(shuffled)
    permuted = _request_from(
        [n for n, _ in shuffled], [p for _, p in shuffled], total
    )
    assert base.fingerprint() == permuted.fingerprint()
    assert base.family_key() == permuted.family_key()


@settings(max_examples=50, deadline=None)
@given(names=_names, data=st.data(), total=st.integers(8, 4096))
def test_fingerprint_invariant_to_subdigit_noise(names, data, total):
    # Snap drawn values onto the canonical 12-digit grid first: a raw draw
    # can land exactly on a rounding half-way boundary, where even 1e-15
    # relative noise legitimately flips the last significant digit.  On-grid
    # values sit half an ULP from the nearest boundary, so sub-digit noise
    # must never move the fingerprint.
    params_list = [
        {k: _sig(v) for k, v in data.draw(_params).items()} for _ in names
    ]
    # Perturb every parameter well below the significant-digit cutoff: the
    # rounded canonical value must not move.
    noisy = [
        {k: v * (1.0 + 1e-15) for k, v in params.items()}
        for params in params_list
    ]
    base = _request_from(names, params_list, total)
    jittered = _request_from(names, noisy, total)
    assert base.fingerprint() == jittered.fingerprint()


@settings(max_examples=50, deadline=None)
@given(
    names=_names,
    data=st.data(),
    total_a=st.integers(8, 4096),
    total_b=st.integers(8, 4096),
)
def test_distinct_budgets_never_collide(names, data, total_a, total_b):
    params_list = [data.draw(_params) for _ in names]
    ra = _request_from(names, params_list, total_a)
    rb = _request_from(names, params_list, total_b)
    if total_a == total_b:
        assert ra.fingerprint() == rb.fingerprint()
    else:
        assert ra.fingerprint() != rb.fingerprint()
    # Same curves, any budget: one warm-start family.
    assert ra.family_key() == rb.family_key()


def test_distinct_objectives_never_collide():
    prints = {
        make_request(64, objective=obj).fingerprint()
        for obj in ("min-max", "max-min", "min-sum")
    }
    assert len(prints) == 3


def test_solver_options_are_identity():
    base = make_request(64)
    tighter = make_request(64, options=BnBOptions(gap_rel=1e-9))
    assert base.fingerprint() != tighter.fingerprint()


def test_wire_roundtrip_preserves_fingerprint(request64):
    clone = SolveRequest.from_dict(request64.to_dict())
    assert clone.fingerprint() == request64.fingerprint()
    assert clone.family_key() == request64.family_key()


def test_sig_rounding_is_stable():
    assert _sig(1.0 + 1e-15) == 1.0
    assert _sig(123.456789) == float(f"{123.456789:.{PARAM_SIG_DIGITS}g}")
    assert not math.isnan(_sig(0.0))


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({}, "components"),
        ({"components": {"a": {"a": 1.0}}}, "total_nodes"),
        ({"components": {"a": {}}, "total_nodes": 4}, "curve parameters"),
        ({"components": 3, "total_nodes": 4}, "components"),
        ({"components": {"a": 7}, "total_nodes": 4}, "must be a mapping"),
        ({"components": {"a": {"a": "fast"}}, "total_nodes": 4}, "curve parameters"),
        ({"components": {"a": {"a": math.nan}}, "total_nodes": 4}, "curve parameters"),
        ({"components": {"a": {"a": 1.0, "min_nodes": "two"}}, "total_nodes": 4},
         "min_nodes must be an integer"),
        ({"components": {"a": {"a": 1.0, "min_nodes": 2.7}}, "total_nodes": 4},
         "min_nodes must be an integer"),
        ({"components": {"a": {"a": 1.0, "max_nodes": [3]}}, "total_nodes": 4},
         "max_nodes must be an integer"),
        ({"components": {"a": {"a": 1.0}}, "total_nodes": 4.5}, "total_nodes"),
        ({"components": {"a": {"a": 1.0}}, "total_nodes": True}, "total_nodes"),
        ({"components": {"a": {"a": 1.0}}, "total_nodes": None}, "total_nodes"),
        ({"components": {"a": {"a": 1.0}}, "total_nodes": 4, "solver": 5}, "solver"),
        ({"components": {"a": {"a": 1.0}}, "total_nodes": 4,
          "solver": {"node_limit": 10.5}}, "node_limit must be an integer"),
        ({"components": {"a": {"a": 1.0}}, "total_nodes": 4,
          "solver": {"gap_rel": math.inf}}, "gap_rel must be a finite number"),
        ({"components": {"a": {"a": 1.0}}, "total_nodes": 4,
          "solver": {"time_limit": "soon"}}, "time_limit must be a finite number"),
        ({"components": {"a": {"a": 1.0}}, "total_nodes": 4, "objective": 5},
         "objective"),
        ({"components": {"a": {"a": 1.0, "min_nodes": 0}}, "total_nodes": 4},
         "min_nodes must be >= 1"),
        ({"components": {"a": {"a": 1.0, "min_nodes": 3, "max_nodes": 2}},
          "total_nodes": 4}, "below min_nodes"),
    ],
)
def test_bad_wire_payloads_are_typed_errors(payload, fragment):
    with pytest.raises(ServiceRequestError, match=fragment):
        SolveRequest.from_dict(payload)


def test_integral_floats_on_the_wire_are_integers_not_truncations():
    request = SolveRequest.from_dict(
        {"components": {"a": {"a": 1.0, "min_nodes": 2.0, "max_nodes": 3.0}},
         "total_nodes": 4.0, "solver": {"node_limit": 50.0}}
    )
    assert request.total_nodes == 4 and request.options.node_limit == 50
    assert request.components["a"].min_nodes == 2
    assert request.components["a"].max_nodes == 3


def test_validation_rejects_starved_budget():
    with pytest.raises(ServiceRequestError, match="one node each"):
        make_request(total_nodes=2)


def test_validation_rejects_a_budget_above_the_documented_cap():
    """Before: ``total_nodes = 1e9`` on non-saturating curves made the heap
    tabulate 1e9 entries per component, in the serving parent."""
    from repro.service.request import MAX_TOTAL_NODES

    assert make_request(MAX_TOTAL_NODES).total_nodes == 2**20  # the cap is legal
    with pytest.raises(ServiceRequestError, match="above the largest budget"):
        make_request(MAX_TOTAL_NODES + 1)
    for huge in (MAX_TOTAL_NODES + 1, 10**9, 1e9, 1e308):
        with pytest.raises(ServiceRequestError, match="above the largest budget"):
            SolveRequest.from_dict(
                {"components": {"x": {"a": 100.0}}, "total_nodes": huge}
            )


def test_validation_rejects_unknown_objective():
    with pytest.raises(ServiceRequestError, match="objective"):
        make_request(64, objective="min-median")


def test_validation_rejects_unknown_algorithm():
    with pytest.raises(ServiceRequestError, match="algorithm"):
        make_request(64, algorithm="simplex")


# -- bounds no solver can honour ---------------------------------------------


@pytest.mark.parametrize(
    "bounds, fragment",
    [
        (dict(min_nodes=5, max_nodes=3), "below min_nodes"),
        (dict(min_nodes=0), "min_nodes must be >= 1"),
        (dict(min_nodes=-2, max_nodes=4), "min_nodes must be >= 1"),
    ],
)
def test_contradictory_bounds_are_refused_at_construction(bounds, fragment):
    """Before: constructed, and answered ``optimal`` with ``x`` below its own
    floor; only ``validate_outcome`` (resilience policies only) noticed."""
    spec = ComponentSpec(model=PerformanceModel(a=100.0), **bounds)
    with pytest.raises(ServiceRequestError, match=fragment):
        SolveRequest(components={"x": spec}, total_nodes=8)


def test_floors_that_overspend_the_budget_stay_an_infeasible_answer():
    spec = ComponentSpec(model=PerformanceModel(a=100.0), min_nodes=5)
    request = SolveRequest(components={"x": spec, "y": spec}, total_nodes=8)
    assert solve_request(request).status == "infeasible"


# -- identity once -----------------------------------------------------------

_bounded = st.fixed_dictionaries(
    {"min_nodes": st.integers(1, 3), "extra": st.none() | st.integers(0, 40)}
)
_objectives = st.sampled_from(["min-max", "max-min", "min-sum"])
_six_names = st.lists(
    st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8),
    min_size=2,
    max_size=6,
    unique=True,
)


def _bounded_request(names, data, total, objective):
    components = {}
    for name in names:
        bounds = data.draw(_bounded)
        components[name] = ComponentSpec(
            model=PerformanceModel(**data.draw(_params)),
            min_nodes=bounds["min_nodes"],
            max_nodes=(
                None if bounds["extra"] is None
                else bounds["min_nodes"] + bounds["extra"]
            ),
        )
    return components, SolveRequest(
        components=components, total_nodes=total, objective=objective
    )


@settings(max_examples=60, deadline=None)
@given(
    names=_six_names,
    data=st.data(),
    total=st.integers(8, 4096),
    objective=_objectives,
    seed=st.randoms(use_true_random=False),
)
def test_memoised_identity_is_the_from_scratch_identity(
    names, data, total, objective, seed
):
    components, request = _bounded_request(names, data, total, objective)
    expected = _scratch_identity(request)
    assert _identity(request) == expected
    assert _identity(request) == expected  # the memo answers the same
    assert request.to_dict() == request.canonical()

    # Component order, parameter-dict key order, the wire round trip.
    order = list(components)
    seed.shuffle(order)
    permuted = SolveRequest(
        components={name: components[name] for name in order},
        total_nodes=total,
        objective=objective,
    )
    assert _identity(permuted) == expected
    wire = request.to_dict()
    scrambled = {
        **wire,
        "components": {
            name: dict(reversed(list(wire["components"][name].items())))
            for name in reversed(list(wire["components"]))
        },
    }
    assert _identity(SolveRequest.from_dict(scrambled)) == expected
    rewired = SolveRequest.from_dict(json.loads(json.dumps(wire)))
    assert _identity(rewired) == expected and rewired.to_dict() == wire

    # Copies carry the identity; they do not recompute a different one.
    for clone in (pickle.loads(pickle.dumps(request)), copy.copy(request),
                  copy.deepcopy(request)):
        assert clone == request
        assert _identity(clone) == expected == _scratch_identity(clone)

    # A changed budget is a new instance: new fingerprint, same family.
    moved = dataclasses.replace(request, total_nodes=total + 1)
    assert moved.fingerprint() != expected[0]
    assert moved.family_key() == expected[1]
    assert _identity(moved) == _scratch_identity(moved)


@settings(max_examples=40, deadline=None)
@given(names=_six_names, data=st.data(), total=st.integers(8, 4096))
def test_a_bound_objective_or_parameter_change_moves_both_digests(
    names, data, total
):
    components, request = _bounded_request(names, data, total, "min-max")
    victim = names[0]
    spec = components[victim]
    changes = {
        "bound": dataclasses.replace(spec, min_nodes=spec.min_nodes + 1,
                                     max_nodes=None),
        # Eleven digits in: above the 12-significant-digit canonical grid.
        "parameter": dataclasses.replace(
            spec, model=dataclasses.replace(spec.model, a=spec.model.a * (1 + 1e-9))
        ),
    }
    variants = [
        dataclasses.replace(request, components={**components, victim: changed})
        for changed in changes.values()
    ]
    variants.append(dataclasses.replace(request, objective="max-min"))
    for variant in variants:
        assert variant.fingerprint() != request.fingerprint()
        assert variant.family_key() != request.family_key()
        assert _identity(variant) == _scratch_identity(variant)


def test_mutating_the_callers_dict_changes_neither_identity_nor_answer():
    components = {
        name: ComponentSpec(model=PerformanceModel(**params))
        for name, params in
        {"atm": dict(a=1200.0, b=0.5, c=1.1, d=2.0), "ocn": dict(a=800.0)}.items()
    }
    request = SolveRequest(components=components, total_nodes=32)
    before = _identity(request), solve_request(request).allocation
    components["ice"] = ComponentSpec(model=PerformanceModel(a=300.0))
    del components["ocn"]
    assert set(request.components) == {"atm", "ocn"}
    assert (_identity(request), solve_request(request).allocation) == before
    assert _identity(request) == _scratch_identity(request)
    with pytest.raises(TypeError):
        request.components["ice"] = components["ice"]


def test_the_ledger_pools_digests_are_pinned():
    """The 48 requests ``benchmarks/e2e/reference.json`` hashes into its
    ``serve_*`` input digests: the canonical form cannot move silently."""
    pool = ledger_pool()
    assert _identity(pool[0]) == (
        "f4872aad93050aba3f42192b447fea75", "7b2dc8aad9b9c5bc9bcf09d1dcf92bdf"
    )
    assert _identity(pool[47]) == (
        "8d32369bb0a01a9bb8b5afb2b84c1580", "236bd02ac376ba8952f39a180df29324"
    )
    rows = [list(_identity(r)) for r in pool]
    assert rows == [list(_scratch_identity(r)) for r in pool]
    assert len({fp for fp, _ in rows}) == 48 and len({fam for _, fam in rows}) == 12
    blob = json.dumps(rows).encode()
    assert hashlib.blake2b(blob, digest_size=16).hexdigest() == (
        "6d361fac52c6cb01716c0b357f500f72"
    )
    payloads = json.dumps([r.to_dict() for r in pool], sort_keys=True).encode()
    assert hashlib.blake2b(payloads, digest_size=16).hexdigest() == (
        "2f396c8bc9eeb595086f2d5e4ad60fa4"
    )
