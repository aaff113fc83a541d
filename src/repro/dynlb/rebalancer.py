"""Rebalancing strategies behind one interface.

Four real strategies plus the frozen-plan control:

* :class:`StaticRebalancer`    — never moves; the paper's HSLB plan frozen
  at step 0 (the control arm every comparison is measured against);
* :class:`HSLBRebalancer`      — exact re-solve of the min-max allocation
  over the *refitted* curves under the floors: one budget row, so the heap
  of :mod:`repro.core.greedy` answers it (§III-E), no MINLP;
* :class:`DiffusionRebalancer` — iterative nearest-neighbor load
  diffusion (SNIPPETS.md snippet 2): neighbors on a ring exchange nodes
  proportionally to their time gap until no exchange helps;
* :class:`SweepRebalancer`     — tristan-v2's ``m_staticlb`` style
  per-axis sweep: a few passes of whole-budget proportional
  redistribution by measured work ``t_j * n_j``;
* :class:`TwoLevelRebalancer`  — Mohammed et al.'s two-level hybrid:
  HSLB re-solve across components while the *intra-component* level runs
  dynamic self-scheduling (``intra_policy = "self"``), which the workload
  rewards by smoothing intra-component stragglers.

Every strategy consumes a :class:`RebalanceContext` and returns a full
:class:`~repro.core.spec.Allocation`; the controller owns gating,
application, and fault interplay.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.greedy import greedy_minmax_allocation
from repro.core.spec import Allocation
from repro.obs.trace import span
from repro.perf.model import PerformanceModel

#: Strategy names accepted by :func:`make_rebalancer` (and the CLI).
STRATEGIES = ("static", "hslb", "diffusion", "sweep", "two-level")

_DIFFUSION_ROUNDS_PER_COMPONENT = 10  # sweeps of the ring before giving up


@dataclass
class RebalanceContext:
    """Everything a strategy may look at when proposing an allocation."""

    step: int
    models: dict[str, PerformanceModel]  # refitted curves
    allocation: Allocation
    total_nodes: int
    min_nodes: dict[str, int] = field(default_factory=dict)
    steps_remaining: int = 0

    def floor(self, component: str) -> int:
        return self.min_nodes.get(component, 1)


class Rebalancer(abc.ABC):
    """One rebalancing strategy: refitted curves in, allocation out."""

    #: Registry/CLI name of the strategy.
    name: str = "abstract"
    #: Intra-component scheduling level ("static" or "self") — the
    #: workload's second DLB level per Mohammed et al.
    intra_policy: str = "static"

    @abc.abstractmethod
    def propose(self, ctx: RebalanceContext) -> Allocation:
        """Propose a full allocation for the remaining steps."""

    def describe(self) -> str:
        return f"{self.name} (intra={self.intra_policy})"


class StaticRebalancer(Rebalancer):
    """The control arm: the frozen step-0 plan, never revisited."""

    name = "static"

    def propose(self, ctx: RebalanceContext) -> Allocation:
        return ctx.allocation


class HSLBRebalancer(Rebalancer):
    """Exact min-max re-solve over the refitted curves, floors kept.

    The re-solve is the paper's problem with floors — one budget row over
    univariate curves — so the heap answers it exactly in milliseconds and
    depends on nothing but its context: no warm start, no state carried
    between decisions.  Mohammed et al. (arXiv 1911.06714) ask of a
    two-level rebalancer that a decision cost less than it saves.
    """

    name = "hslb"

    def propose(self, ctx: RebalanceContext) -> Allocation:
        with span("dynlb.resolve", strategy=self.name, step=int(ctx.step)):
            counts, _ = greedy_minmax_allocation(
                ctx.models, ctx.total_nodes, min_nodes=ctx.min_nodes
            )
        return Allocation(counts)


class TwoLevelRebalancer(HSLBRebalancer):
    """Two-level hybrid: HSLB across components, self-scheduling within."""

    name = "two-level"
    intra_policy = "self"


class DiffusionRebalancer(Rebalancer):
    """Nearest-neighbor load diffusion on a ring of components.

    Each round, every adjacent pair compares predicted step times and the
    faster side donates nodes proportional to the relative gap (the
    discrete analogue of ``d += 0.2 * (left - 2*d + right)`` from the
    snippet's smoothing kernel).  Mass-conserving by construction; stops
    when a full round moves nothing.
    """

    name = "diffusion"

    def __init__(self, eta: float = 0.5) -> None:
        if not (0.0 < eta <= 1.0):
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        self.eta = eta

    def propose(self, ctx: RebalanceContext) -> Allocation:
        order = sorted(ctx.models)
        alloc = {name: ctx.allocation[name] for name in order}
        if len(order) < 2:
            return ctx.allocation
        pairs = [(order[j], order[(j + 1) % len(order)]) for j in range(len(order))]
        if len(order) == 2:
            pairs = pairs[:1]
        for _ in range(_DIFFUSION_ROUNDS_PER_COMPONENT * len(order)):
            moved = False
            for left, right in pairs:
                t_l = ctx.models[left].time(alloc[left])
                t_r = ctx.models[right].time(alloc[right])
                if t_l == t_r:
                    continue
                donor, receiver = (left, right) if t_l < t_r else (right, left)
                gap = abs(t_l - t_r) / max(t_l, t_r)
                give = int(round(self.eta * gap * alloc[donor] * 0.5))
                give = min(give, alloc[donor] - ctx.floor(donor))
                if give < 1:
                    continue
                alloc[donor] -= give
                alloc[receiver] += give
                moved = True
            if not moved:
                break
        return Allocation(alloc)


class SweepRebalancer(Rebalancer):
    """tristan-v2 ``m_staticlb``-style proportional sweep.

    Each pass recomputes every component's work estimate ``t_j * n_j``
    from the current trial allocation and redistributes the whole budget
    proportionally (largest-remainder integer snap, floors respected) —
    the per-axis loop of ``redistributeMeshblocksSLB`` collapsed onto the
    single component axis this pipeline has.
    """

    name = "sweep"

    def __init__(self, passes: int = 4) -> None:
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        self.passes = passes

    def propose(self, ctx: RebalanceContext) -> Allocation:
        order = sorted(ctx.models)
        alloc = {name: ctx.allocation[name] for name in order}
        for _ in range(self.passes):
            work = {
                name: ctx.models[name].time(alloc[name]) * alloc[name]
                for name in order
            }
            alloc = _proportional_split(work, ctx)
        return Allocation(alloc)


def _proportional_split(
    work: dict[str, float], ctx: RebalanceContext
) -> dict[str, int]:
    """Integer shares of the budget proportional to ``work``, floors kept."""
    order = sorted(work)
    total_work = sum(work.values())
    if total_work <= 0:
        return {name: ctx.allocation[name] for name in order}
    raw = {name: ctx.total_nodes * work[name] / total_work for name in order}
    counts = {name: max(int(raw[name]), ctx.floor(name)) for name in order}
    spare = ctx.total_nodes - sum(counts.values())
    if spare > 0:
        # Largest fractional remainder first; name breaks ties.
        for name in sorted(order, key=lambda n: (counts[n] - raw[n], n)):
            if spare == 0:
                break
            counts[name] += 1
            spare -= 1
    while sum(counts.values()) > ctx.total_nodes:
        donor = max(
            (n for n in order if counts[n] > ctx.floor(n)),
            key=lambda n: (counts[n] - raw[n], n),
        )
        counts[donor] -= 1
    return counts


def make_rebalancer(name: str, **kwargs) -> Rebalancer:
    """Construct a strategy by registry name (see :data:`STRATEGIES`)."""
    registry: dict[str, type[Rebalancer]] = {
        "static": StaticRebalancer,
        "hslb": HSLBRebalancer,
        "diffusion": DiffusionRebalancer,
        "sweep": SweepRebalancer,
        "two-level": TwoLevelRebalancer,
    }
    try:
        cls = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown rebalancer {name!r}; expected one of {', '.join(STRATEGIES)}"
        ) from None
    return cls(**kwargs)
