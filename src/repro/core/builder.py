"""MINLP construction helpers shared by every HSLB formulation.

Two pieces live here:

* :class:`DiscreteNodeSet` — the paper's "possible allocations" sets
  (Table I lines 5–6, e.g. ``O = {2, 4, ..., 480, 768}``).  The set is
  decomposed into maximal runs of consecutive integers; each run gets a
  selection binary, and the binaries form a special-ordered set (Table I
  lines 29–31).  A fully contiguous set degenerates to a plain bounded
  integer variable — no binaries at all.

* :class:`AllocationModelBuilder` — declares one node-count variable per
  component (wiring up its discrete set if any), exposes each component's
  fitted time expression, and installs the §III-D objective.  Layout
  subclasses (CESM) and schedulers (FMO) add their own temporal/node
  constraints on top through the underlying :class:`Model`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.core.objectives import Objective, apply_objective
from repro.minlp.expr import Expr, Relation, VarRef, sum_exprs
from repro.minlp.modeling import Model
from repro.minlp.problem import Problem
from repro.perf.model import PerformanceModel


@dataclass(frozen=True)
class DiscreteNodeSet:
    """An explicit set of admissible node counts ("sweet spots")."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(sorted({int(v) for v in self.values}))
        if not vals:
            raise ValueError("discrete node set must be non-empty")
        if vals[0] < 1:
            raise ValueError(f"node counts must be >= 1, got {vals[0]}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_iterable(cls, values: Iterable[int]) -> "DiscreteNodeSet":
        return cls(tuple(values))

    @classmethod
    def _presorted(cls, values: tuple[int, ...]) -> "DiscreteNodeSet":
        """Wrap ``values`` that are already what ``__post_init__`` would make
        of them — non-empty, strictly increasing ints, all >= 1 — unsorted."""
        out = object.__new__(cls)
        object.__setattr__(out, "values", values)
        return out

    @classmethod
    def _range_plus(cls, run: range, extras: Sequence[int]) -> "DiscreteNodeSet":
        """``run`` plus ``extras``, sorting only when the extras do not
        already continue the run upward (the paper's sets all do)."""
        tail = tuple(int(v) for v in extras)
        if run and run[0] >= 1 and all(
            a < b for a, b in zip((run[-1],) + tail, tail)
        ):
            return cls._presorted(tuple(run) + tail)
        return cls(tuple(run) + tail)

    @classmethod
    def even_range(cls, start: int, stop: int, extras: Sequence[int] = ()) -> "DiscreteNodeSet":
        """Even counts ``start..stop`` plus ``extras`` — the shape of the
        paper's ocean set ``{2, 4, ..., 480, 768}``."""
        return cls._range_plus(range(start, stop + 1, 2), extras)

    @classmethod
    def contiguous(cls, lo: int, hi: int, extras: Sequence[int] = ()) -> "DiscreteNodeSet":
        """All integers ``lo..hi`` plus ``extras`` — the shape of the paper's
        atmosphere set ``{1, 2, ..., 1638, 1664}``."""
        return cls._range_plus(range(lo, hi + 1), extras)

    def up_to(self, cap: int) -> "DiscreteNodeSet | None":
        """The members ``<= cap``, or None when there are none."""
        head = self.values[:bisect_right(self.values, cap)]
        return self._presorted(head) if head else None

    @property
    def min(self) -> int:
        return self.values[0]

    @property
    def max(self) -> int:
        return self.values[-1]

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, n: int) -> bool:
        i = bisect_left(self.values, int(n))
        return i < len(self.values) and self.values[i] == int(n)

    def runs(self) -> list[tuple[int, int]]:
        """Maximal runs of consecutive integers, as (lo, hi) pairs.

        ``values[j] - j`` is nondecreasing and constant exactly along a run,
        so each run's last member is found by galloping then bisecting on
        it: the 26 k-count atmosphere range costs a few dozen probes, not a
        pass over the set.
        """
        vals = self.values
        out: list[tuple[int, int]] = []
        first = 0
        while first < len(vals):
            offset = vals[first] - first
            last, beyond, step = first, first + 1, 1  # last: in the run
            while beyond < len(vals) and vals[beyond] - beyond == offset:
                last, step = beyond, 2 * step
                beyond = last + step
            beyond = min(beyond, len(vals))
            while beyond - last > 1:
                mid = (last + beyond) // 2
                if vals[mid] - mid == offset:
                    last = mid
                else:
                    beyond = mid
            out.append((vals[first], vals[last]))
            first = last + 1
        return out

    def nearest(self, n: float) -> int:
        """The admissible count closest to ``n`` (ties to the smaller)."""
        i = bisect_left(self.values, n)
        return min(self.values[max(i - 1, 0):i + 1], key=lambda v: (abs(v - n), v))

    def below(self, n: float) -> int:
        """The largest admissible count <= n (smallest member if none)."""
        return self.values[max(bisect_right(self.values, n) - 1, 0)]


class AllocationModelBuilder:
    """Declarative construction of HSLB node-allocation MINLPs."""

    def __init__(self, name: str, total_nodes: int) -> None:
        if total_nodes < 1:
            raise ValueError(f"total_nodes must be >= 1, got {total_nodes}")
        self.model = Model(name)
        self.total_nodes = int(total_nodes)
        self._node_vars: dict[str, VarRef] = {}
        self._time_exprs: dict[str, Expr] = {}
        self._models: dict[str, PerformanceModel] = {}
        self._caps: dict[str, int] = {}  # the largest count each may take
        self._objective_installed = False

    # -- components ------------------------------------------------------

    def add_component(
        self,
        name: str,
        perf_model: PerformanceModel,
        *,
        min_nodes: int = 1,
        max_nodes: int | None = None,
        allowed: DiscreteNodeSet | None = None,
        encoding: str = "run",
    ) -> VarRef:
        """Declare component ``name`` and return its node-count variable.

        With ``allowed`` given, the variable ranges over that set via
        selection binaries in an SOS1; otherwise it is a plain integer in
        ``[min_nodes, max_nodes]``.

        ``encoding`` selects the discrete-set formulation:

        * ``"run"`` (default) — one binary per maximal run of consecutive
          integers, so a contiguous set needs no binaries at all.  This is
          the compressed formulation this library contributes.
        * ``"value"`` — one binary per admissible value, the paper-literal
          Table I lines 29–31 (``sum z_k O_k = n_o``).  Exponentially more
          binaries on dense sets; kept for the SOS-branching ablation that
          reproduces the paper's two-orders-of-magnitude claim.
        """
        if name in self._node_vars:
            raise ValueError(f"duplicate component {name!r}")
        if encoding not in ("run", "value"):
            raise ValueError(f"unknown encoding {encoding!r}")
        if allowed is None:
            hi = self.total_nodes if max_nodes is None else int(max_nodes)
            self._caps[name] = hi
            n = self.model.integer_var(f"n_{name}", max(1, int(min_nodes)), hi)
        else:
            n = self._discrete_node_var(name, allowed, max_nodes, encoding)
        self._node_vars[name] = n
        self._models[name] = perf_model
        self._time_exprs[name] = perf_model.expression(n)
        return n

    def _discrete_node_var(
        self, name: str, allowed: DiscreteNodeSet, max_nodes: int | None, encoding: str
    ) -> VarRef:
        cap = self.total_nodes if max_nodes is None else int(max_nodes)
        trimmed = allowed.up_to(cap)
        if trimmed is None:
            raise ValueError(
                f"component {name!r}: no admissible node count <= {cap} "
                f"(set minimum is {allowed.min})"
            )
        self._caps[name] = trimmed.max
        if encoding == "value":
            return self._value_encoded_var(name, trimmed)
        runs = trimmed.runs()
        if len(runs) == 1:
            lo, hi = runs[0]
            return self.model.integer_var(f"n_{name}", lo, hi)
        n = self.model.integer_var(f"n_{name}", trimmed.min, trimmed.max)
        zs = [
            self.model.binary_var(f"z_{name}[{k}]") for k in range(len(runs))
        ]
        self.model.add_equals(sum_exprs(zs), 1, f"{name}_one_run")
        # n must lie inside the selected run.
        self.model.add(
            n >= sum_exprs(lo * z for (lo, _), z in zip(runs, zs)),
            f"{name}_run_lo",
        )
        self.model.add(
            n <= sum_exprs(hi * z for (_, hi), z in zip(runs, zs)),
            f"{name}_run_hi",
        )
        self.model.sos1(zs, weights=[float(lo) for lo, _ in runs], name=f"sos_{name}")
        return n

    @staticmethod
    def run_binaries(
        name: str, allowed: DiscreteNodeSet, max_nodes: int, count: int
    ) -> dict[str, float]:
        """The selection binaries :meth:`_discrete_node_var` declares for
        ``name`` under the run encoding (``allowed`` trimmed to
        ``max_nodes``), valued for the admissible ``count``: 1 on the run
        holding it, 0 on the others.  A set that trims to one run has none.
        With the node counts, this completes a discrete assignment — what
        :func:`repro.minlp.oa.solve_minlp_oa` takes as its ``start``."""
        runs = allowed.up_to(max_nodes).runs()
        if len(runs) == 1:
            return {}
        return {
            f"z_{name}[{k}]": float(lo <= count <= hi) for k, (lo, hi) in enumerate(runs)
        }

    def _value_encoded_var(self, name: str, trimmed: DiscreteNodeSet) -> VarRef:
        """Paper-literal encoding: sum z_k = 1, sum z_k O_k = n (lines 29-31)."""
        values = trimmed.values
        # The node count itself is continuous here — the binaries carry all
        # the integrality, exactly as in the paper's AMPL model.
        n = self.model.var(f"n_{name}", float(trimmed.min), float(trimmed.max))
        zs = [self.model.binary_var(f"z_{name}[{k}]") for k in range(len(values))]
        self.model.add_equals(sum_exprs(zs), 1, f"{name}_one_value")
        self.model.add_equals(
            sum_exprs(float(v) * z for v, z in zip(values, zs)), n, f"{name}_value_link"
        )
        self.model.sos1(zs, weights=[float(v) for v in values], name=f"sos_{name}")
        return n

    # -- views ------------------------------------------------------------

    @property
    def components(self) -> tuple[str, ...]:
        return tuple(self._node_vars)

    def node_var(self, name: str) -> VarRef:
        return self._node_vars[name]

    def time_expr(self, name: str) -> Expr:
        """The fitted ``T_name(n_name)`` as a symbolic expression."""
        return self._time_exprs[name]

    def perf_model(self, name: str) -> PerformanceModel:
        return self._models[name]

    # -- constraints / objective ------------------------------------------

    def add_constraint(self, relation: Relation, name: str | None = None) -> str:
        """Add an arbitrary extra constraint (layout sequencing rules etc.)."""
        return self.model.add(relation, name)

    def limit_total_nodes(self, *, exact: bool = False) -> None:
        """Require the components' node counts to fit in the machine.

        ``exact=True`` forces the full machine to be used (``sum n_j == N``).
        This matters for the max-min objective: with a ``<=`` budget the
        optimizer can "improve" the minimum component time by starving every
        component, which is never the intent; pinning the budget turns
        max-min into genuine raise-the-floor balancing.
        """
        if not self._node_vars:
            raise ValueError("no components to constrain")
        total = sum_exprs(self._node_vars.values())
        if exact:
            self.model.add_equals(total, self.total_nodes, "machine_capacity")
        else:
            self.model.add(total <= self.total_nodes, "machine_capacity")

    def time_upper_bound(self) -> float:
        """A safe upper bound on any component time, with room to spare.

        Each curve is unimodal, so on ``[1, cap_j]`` — which holds the
        component's whole node range — it peaks at an end: ``T_j(1)`` or,
        once the range reaches past the sweet spot, ``T_j(cap_j)``.
        Bounding by ``T_j(1)`` alone, as this once did, cut off feasible
        allocations whose floor sits past the sweet spot (OA then answered
        them "infeasible").  The floor itself would give a tighter bound,
        but a tighter bound changes the OA tree on every pipeline block with
        floors above one node.
        """
        worst = max((self.worst_time(name) for name in self._models), default=0.0)
        return 2.0 * worst + 1.0

    def worst_time(self, name: str, model: PerformanceModel | None = None) -> float:
        """The largest time ``model`` (by default ``name``'s own curve) takes
        anywhere on ``name``'s node range ``[1, cap]``: at one end, since
        every curve is unimodal."""
        model = model or self._models[name]
        return max(float(model.time(1)), float(model.time(self._caps[name])))

    def set_objective(self, objective: Objective = Objective.MIN_MAX) -> VarRef | None:
        """Install a §III-D objective over ALL component times.

        Layout formulations with bespoke makespan structure (e.g. CESM
        layout 1's ``max(max(ice,lnd)+atm, ocn)``) skip this and build their
        own epigraph constraints directly on :attr:`model`.
        """
        if self._objective_installed:
            raise RuntimeError("objective already installed")
        self._objective_installed = True
        return apply_objective(
            self.model,
            objective,
            self._time_exprs,
            time_upper_bound=self.time_upper_bound(),
        )

    def build(self) -> Problem:
        """Compile to a solver-ready problem."""
        return self.model.build()
