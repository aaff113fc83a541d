"""Solve requests: canonicalization and fingerprinting.

A :class:`SolveRequest` is the service's unit of work: "split
``total_nodes`` nodes across these components, whose fitted performance
curves are ``T_j(n) = a/n + b n^c + d``".  Two requests that describe the
same optimization problem must map to the same **fingerprint** so they share
one cache slot, regardless of:

* the order components were listed in,
* dict key order inside each component's parameter block,
* float noise below :data:`PARAM_SIG_DIGITS` significant digits (fitted
  parameters re-derived from the same benchmark data differ in the last
  couple of bits run-to-run).

Anything that changes the *answer* — node budget, objective, algorithm,
per-component node bounds, solver tolerances — is part of the fingerprint.
The **family key** is the same hash with the node budget removed: requests
in one family differ only in machine size, which is exactly the population
the ring keeps on one shard and the circuit breaker trips for.

A request is **immutable, validated at construction, and identified once**.
``components`` is snapshotted into a read-only mapping (mutating the dict the
caller passed in afterwards changes neither the identity nor the answer),
bounds no solver could honour (``min_nodes < 1``, ``max_nodes < min_nodes``)
and a budget above :data:`MAX_TOTAL_NODES` raise
:class:`ServiceRequestError` — from the constructor, so ``from_dict``
refuses them too — and the canonical payload plus both
digests come out of one pass memoised on the instance: every later
``fingerprint()`` / ``family_key()`` — the tier calls them at routing,
coalescing, the cache, validation and the solver — is an attribute read.
``dataclasses.replace`` builds a new instance, so a changed budget gets a
fresh identity; a pickled or copied request carries the one it had.

A request is always one budget row over univariate curves with optional box
bounds, answered under every objective by :mod:`repro.core.greedy`.
``algorithm`` and the ``solver`` block steer no solve; they stay in the
canonical form of every request because the e2e harness pins the pool's
``to_dict()`` digest (ROADMAP 1(iii)).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from repro.core.objectives import Objective
from repro.minlp.bnb import BnBOptions
from repro.perf.model import PerformanceModel
from repro.service.errors import ServiceRequestError

#: Significant digits fitted parameters are rounded to before hashing.
#: 12 digits is far below any physically meaningful difference in a fitted
#: curve but far above float round-off noise.
PARAM_SIG_DIGITS = 12

_ALGORITHMS = ("auto", "oa", "nlpbb")

#: Largest node budget a request may ask for: above any machine's node count
#: (Intrepid, the paper's machine, has 40 960), and a bound on what one line
#: of input can make the serving process do.  ``core.greedy`` tabulates each
#: curve up to its cap before it allocates, and a direct request is answered
#: on the tier's event loop, so an unbounded budget is unbounded time and
#: memory in the parent, with every other request waiting (``total_nodes =
#: 1e9`` asked for three tables of 1e9 floats).  Measured at this cap on
#: three non-saturating curves (``b = 0``, the worst case — a saturating
#: curve stops at its sweet spot): the min-max top-B selection 64-68 ms and
#: 80 MiB of transient tables, the max-min level sets 0.23-0.27 s and
#: 99 MiB.  Input validation, not a knob.
MAX_TOTAL_NODES = 2**20


def _sig(value: float) -> float:
    """Round to :data:`PARAM_SIG_DIGITS` significant digits, stably."""
    return float(f"{float(value):.{PARAM_SIG_DIGITS}g}")


@dataclass(frozen=True)
class ComponentSpec:
    """One component: fitted curve parameters plus optional node bounds."""

    model: PerformanceModel
    min_nodes: int = 1
    max_nodes: int | None = None

    def canonical(self) -> dict:
        out = {
            "a": _sig(self.model.a),
            "b": _sig(self.model.b),
            "c": _sig(self.model.c),
            "d": _sig(self.model.d),
            "min_nodes": int(self.min_nodes),
        }
        if self.max_nodes is not None:
            out["max_nodes"] = int(self.max_nodes)
        return out


@dataclass(frozen=True)
class SolveRequest:
    """One allocation query, canonicalizable and hashable."""

    components: Mapping[str, ComponentSpec]
    total_nodes: int
    objective: str = Objective.MIN_MAX.value
    # Canonical form only; pinned by the e2e harness (ROADMAP 1(iii)).
    algorithm: str = "auto"
    options: BnBOptions = field(default_factory=BnBOptions)

    def __post_init__(self) -> None:
        if not self.components:
            raise ServiceRequestError("request has no components")
        if self.total_nodes > MAX_TOTAL_NODES:
            raise ServiceRequestError(
                f"total_nodes {self.total_nodes} is above the largest budget "
                f"a request may carry ({MAX_TOTAL_NODES})"
            )
        if self.total_nodes < len(self.components):
            raise ServiceRequestError(
                f"{self.total_nodes} nodes cannot give "
                f"{len(self.components)} components one node each"
            )
        try:
            Objective(self.objective)
        except ValueError:
            raise ServiceRequestError(
                f"unknown objective {self.objective!r}"
            ) from None
        if self.algorithm not in _ALGORITHMS:
            raise ServiceRequestError(
                f"unknown algorithm {self.algorithm!r}; expected one of {_ALGORITHMS}"
            )
        for name, spec in self.components.items():
            if spec.min_nodes < 1:
                raise ServiceRequestError(
                    f"component {name!r}: min_nodes must be >= 1, "
                    f"got {spec.min_nodes}"
                )
            if spec.max_nodes is not None and spec.max_nodes < spec.min_nodes:
                raise ServiceRequestError(
                    f"component {name!r}: max_nodes {spec.max_nodes} is below "
                    f"min_nodes {spec.min_nodes}"
                )
        # The caller keeps its dict; the request keeps a read-only snapshot,
        # so the memoised identity below cannot go stale.
        object.__setattr__(
            self, "components", MappingProxyType(dict(self.components))
        )

    # A mappingproxy does not pickle: ship the plain dict, re-wrap on arrival
    # (the memoised identity travels with the rest of ``__dict__``).
    def __getstate__(self) -> dict:
        return {**self.__dict__, "components": dict(self.components)}

    def __setstate__(self, state: dict) -> None:
        state["components"] = MappingProxyType(state["components"])
        self.__dict__.update(state)

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> dict:
        """The request as a canonical, JSON-stable payload (a fresh pass)."""
        return {
            "components": {
                name: self.components[name].canonical()
                for name in sorted(self.components)
            },
            "total_nodes": int(self.total_nodes),
            "objective": self.objective,
            "algorithm": self.algorithm,
            "solver": {
                "int_tol": _sig(self.options.int_tol),
                "gap_abs": _sig(self.options.gap_abs),
                "gap_rel": _sig(self.options.gap_rel),
                "node_limit": int(self.options.node_limit),
                "time_limit": _sig(self.options.time_limit),
            },
        }

    @cached_property
    def _identity(self) -> tuple[dict, str, str]:
        """``(canonical payload, fingerprint, family key)`` from one pass.

        ``cached_property`` writes the instance ``__dict__`` directly, which
        a frozen (slot-less) dataclass allows; the fields cannot change
        afterwards, so neither can this.
        """
        payload = self.canonical()
        family = {k: v for k, v in payload.items() if k != "total_nodes"}
        return payload, _digest(payload), _digest(family)

    def fingerprint(self) -> str:
        """Stable identity of the solve: equal problems, equal digests."""
        return self._identity[1]

    def family_key(self) -> str:
        """Identity minus the node budget: what the ring routes and the
        breaker trips on."""
        return self._identity[2]

    # -- wire format -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (the ``repro serve``/``batch`` schema): the
        caller's own copy of the memoised canonical payload."""
        payload = self._identity[0]
        return {
            **payload,
            "components": {k: dict(v) for k, v in payload["components"].items()},
            "solver": dict(payload["solver"]),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SolveRequest":
        """Parse the wire format; every malformed field raises
        :class:`ServiceRequestError`, nothing else."""
        try:
            raw = payload["components"]
        except (KeyError, TypeError):
            raise ServiceRequestError(
                "request must carry a 'components' mapping"
            ) from None
        if not isinstance(raw, Mapping):
            raise ServiceRequestError("'components' must map name -> parameters")
        components: dict[str, ComponentSpec] = {}
        for name, params in raw.items():
            if not isinstance(params, Mapping):
                raise ServiceRequestError(
                    f"component {name!r}: parameters must be a mapping"
                )
            try:
                model = PerformanceModel(
                    a=float(params["a"]),
                    b=float(params.get("b", 0.0)),
                    c=float(params.get("c", 1.0)),
                    d=float(params.get("d", 0.0)),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceRequestError(
                    f"component {name!r}: bad curve parameters ({exc})"
                ) from None
            max_nodes = params.get("max_nodes")
            components[str(name)] = ComponentSpec(
                model=model,
                min_nodes=_integer(
                    f"component {name!r}: min_nodes", params.get("min_nodes", 1)
                ),
                max_nodes=(
                    None
                    if max_nodes is None
                    else _integer(f"component {name!r}: max_nodes", max_nodes)
                ),
            )
        solver = payload.get("solver", {})
        if not isinstance(solver, Mapping):
            raise ServiceRequestError("'solver' must map option -> value")
        defaults = BnBOptions()
        options = BnBOptions(
            node_limit=_integer(
                "solver.node_limit", solver.get("node_limit", defaults.node_limit)
            ),
            **{
                key: _finite(f"solver.{key}", solver.get(key, getattr(defaults, key)))
                for key in ("int_tol", "gap_abs", "gap_rel", "time_limit")
            },
        )
        if "total_nodes" not in payload:
            raise ServiceRequestError("request must carry an integer 'total_nodes'")
        return cls(
            components=components,
            total_nodes=_integer("total_nodes", payload["total_nodes"]),
            objective=str(payload.get("objective", Objective.MIN_MAX.value)),
            algorithm=str(payload.get("algorithm", "auto")),
            options=options,
        )


def _integer(what: str, value) -> int:
    """``value`` as an int if it is one (``8``, ``8.0``); never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ServiceRequestError(f"{what} must be an integer, got {value!r}")


def _finite(what: str, value) -> float:
    """``value`` as a float if it is a finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ServiceRequestError(f"{what} must be a finite number, got {value!r}")
    return number


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()
