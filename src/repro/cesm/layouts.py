"""The Table I mathematical models: CESM component layouts 1–3.

Layout semantics (Figure 1):

1. **HYBRID** (panel 1, the production layout): ocean runs concurrently with
   everything else; ice and land run concurrently with each other on the
   atmosphere's processors, then the atmosphere runs after both finish.
   Makespan: ``max(max(ice, lnd) + atm, ocn)``; node footprint
   ``n_atm + n_ocn`` with ``n_ice + n_lnd <= n_atm``.

2. **SEQUENTIAL_GROUP** (panel 2): ice, land, atmosphere run back-to-back on
   one processor group; ocean concurrent on the rest.  Makespan
   ``max(ice + lnd + atm, ocn)``; each of ice/lnd/atm may use up to
   ``N - n_ocn`` nodes.

3. **FULLY_SEQUENTIAL** (panel 3): everything back-to-back across all
   processors.  Makespan ``ice + lnd + atm + ocn``; each component may use up
   to ``N`` nodes.

The ``Tsync`` tolerance of Table I lines 18–19 couples the ice and land
times: ``|T_l(n_l) - T_i(n_i)| <= Tsync``.  This is a *difference of convex*
functions, i.e. genuinely nonconvex — outer approximation would generate
invalid cuts for it.  The formulation states it exactly, and applications
flag such models (``requires_nonconvex_solver``) so the HSLB pipeline skips
OA for them.  With ``tsync=None`` (the default, and the configuration every
Table III number uses) the model stays convex and OA applies.

:func:`direct_layout` answers the same problems, Tsync included, exactly and
without a tree, by prefix minima over each component's curve; the pipeline
starts OA from its answer and certifies the two against each other, and
answers with it alone when OA cannot run.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from repro.cesm.components import COMPONENTS
from repro.cesm.grids import CESMConfiguration
from repro.core.builder import AllocationModelBuilder
from repro.core.spec import Allocation
from repro.minlp.problem import Problem
from repro.minlp.solution import Solution
from repro.perf.model import PerformanceModel


class Layout(enum.Enum):
    """The three component layouts of Figure 1."""

    HYBRID = 1
    SEQUENTIAL_GROUP = 2
    FULLY_SEQUENTIAL = 3


#: Which balanced component hosts each minor component's nodes (§II: "The
#: river model is typically run on the same processors as the CLM model and
#: the coupler is run on the same processors as the atmosphere").
MINOR_HOSTS: Mapping[str, str] = {"rtm": "lnd", "cpl": "atm"}


def layout_total_time(layout: Layout, times: Mapping[str, float]) -> float:
    """Makespan of realized component ``times`` under ``layout``.

    This is the execution-side mirror of the Table I objective rows (13, 21,
    26) — the simulator and the manual baseline both use it.  When the
    fine-tuning extension supplies ``rtm``/``cpl`` entries, they run
    sequentially on their host component's nodes (rtm after lnd, cpl after
    atm) and extend the corresponding side of the makespan.
    """
    ice = times["ice"]
    lnd = times["lnd"] + times.get("rtm", 0.0)
    atm = times["atm"] + times.get("cpl", 0.0)
    ocn = times["ocn"]
    if layout is Layout.HYBRID:
        return max(max(ice, lnd) + atm, ocn)
    if layout is Layout.SEQUENTIAL_GROUP:
        return max(ice + lnd + atm, ocn)
    return ice + lnd + atm + ocn


def formulate_layout(
    models: Mapping[str, PerformanceModel],
    total_nodes: int,
    config: CESMConfiguration,
    *,
    layout: Layout = Layout.HYBRID,
    tsync: float | None = None,
    sos_encoding: str | Mapping[str, str] = "run",
    minor_models: Mapping[str, PerformanceModel] | None = None,
) -> Problem:
    """Build the Table I MINLP for ``layout`` over fitted ``models``.

    ``tsync`` enables the ice/land synchronization tolerance (seconds);
    ``None`` disables it, matching the paper's observation that the extra
    constraint "may actually result in reduced performance".

    ``sos_encoding`` picks the discrete-set formulation: ``"run"`` (the
    compressed default) or ``"value"`` (the paper-literal one-binary-per-
    count of Table I lines 29–31; used by the SOS-branching ablation).  A
    per-component mapping like ``{"ocn": "value"}`` is also accepted.

    ``minor_models`` enables the fine-tuning extension: fitted RTM/CPL7
    curves, evaluated at their host component's node count (rtm on lnd's
    nodes, cpl on atm's), extend the makespan expressions.
    """
    missing = set(COMPONENTS) - set(models)
    if missing:
        raise ValueError(f"missing fitted models for {sorted(missing)}")
    if total_nodes < 2:
        raise ValueError(f"total_nodes must be >= 2, got {total_nodes}")
    if tsync is not None and tsync < 0:
        raise ValueError(f"tsync must be nonnegative, got {tsync}")

    b = AllocationModelBuilder(f"cesm-{config.name}-layout{layout.value}", total_nodes)
    n = {}
    for comp in COMPONENTS:
        n[comp] = b.add_component(
            comp,
            models[comp],
            min_nodes=config.component_min_nodes(comp),
            max_nodes=total_nodes,
            allowed=config.allowed(comp),
            encoding=(
                sos_encoding
                if isinstance(sos_encoding, str)
                else sos_encoding.get(comp, "run")
            ),
        )

    minor_models = minor_models or {}
    unknown = set(minor_models) - set(MINOR_HOSTS)
    if unknown:
        raise ValueError(f"unknown minor components {sorted(unknown)}")
    # The builder bounds one curve; the summed layouts, and minors riding
    # their hosts, need every side of the makespan at its worst.  (Layout 1
    # without minors never exceeds the builder's bound, which is kept.)
    worst = {comp: b.worst_time(comp) for comp in COMPONENTS}
    for minor, model in minor_models.items():
        worst[minor] = b.worst_time(MINOR_HOSTS[minor], model)
    t_ub = max(b.time_upper_bound(), layout_total_time(layout, worst) + 1.0)
    m = b.model
    T = m.var("T", lb=0.0, ub=t_ub)
    t_ice = b.time_expr("ice")
    t_lnd = b.time_expr("lnd")
    t_atm = b.time_expr("atm")
    t_ocn = b.time_expr("ocn")
    if minor_models:
        # The minors ride their hosts' nodes sequentially.
        if "rtm" in minor_models:
            t_lnd = t_lnd + minor_models["rtm"].expression(n["lnd"])
        if "cpl" in minor_models:
            t_atm = t_atm + minor_models["cpl"].expression(n["atm"])

    if layout is Layout.HYBRID:
        T_icelnd = m.var("T_icelnd", lb=0.0, ub=t_ub)
        m.add(T_icelnd >= t_ice, "icelnd_ge_ice")          # Table I line 15
        m.add(T_icelnd >= t_lnd, "icelnd_ge_lnd")          # line 16
        if tsync is not None:
            # Lines 18-19, stated exactly.  Nonconvex: direct_layout answers.
            m.add(t_lnd - t_ice <= tsync, "tsync_upper")
            m.add(t_ice - t_lnd <= tsync, "tsync_lower")
        m.add(T >= T_icelnd + t_atm, "makespan_atm_side")   # line 17
        m.add(T >= t_ocn, "makespan_ocn_side")              # line 17b
        m.add(n["atm"] + n["ocn"] <= total_nodes, "nodes_atm_ocn")  # line 20
        m.add(n["ice"] + n["lnd"] <= n["atm"], "nodes_ice_lnd")     # line 21
    elif layout is Layout.SEQUENTIAL_GROUP:
        m.add(T >= t_ice + t_lnd + t_atm, "makespan_group")  # line 22
        m.add(T >= t_ocn, "makespan_ocn_side")               # line 23
        for comp in ("lnd", "ice", "atm"):                   # lines 24-26(paper 23-25)
            m.add(n[comp] + n["ocn"] <= total_nodes, f"nodes_{comp}")
    else:  # FULLY_SEQUENTIAL
        m.add(T >= t_ice + t_lnd + t_atm + t_ocn, "makespan_all")  # line 27
        # Each component may span the whole machine (line 28); already
        # enforced by the variable upper bounds set to total_nodes.

    m.minimize(T)
    return b.build()


# -- the exact direct allocator ----------------------------------------------


class _Curve(NamedTuple):
    """One component's fitted time over ``n = 0..N``, with its prefix minima."""

    time: np.ndarray  # T(n), +inf where n is not an admissible count
    best: np.ndarray  # min of T(m) over m <= n (nonincreasing)

    def fastest(self, budget: int) -> int:
        """The smallest count ``<= budget`` with the least time."""
        return int(np.argmin(self.time[: budget + 1]))


def _curve(
    model: PerformanceModel,
    domain: np.ndarray,
    total_nodes: int,
    minor: PerformanceModel | None,
) -> _Curve:
    time = np.full(total_nodes + 1, np.inf)
    x = domain.astype(float)
    time[domain] = model.time(x) if minor is None else model.time(x) + minor.time(x)
    return _Curve(time, np.minimum.accumulate(time))


def _least_count(curve: _Curve, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """For each ``k``, the least count whose time lies in ``[lo[k], hi[k]]``
    (``N + 1`` where none does).

    The least count with time ``<= hi`` is where the prefix minima first
    reach ``hi``; it answers unless its time is below ``lo`` too.  Those
    windows go to a range minimum over the counts sorted by time.
    """
    end = curve.time.size  # N + 1: no count
    first = end - np.searchsorted(curve.best[::-1], hi, "right")
    undershoots = np.append(curve.time, np.inf)[first] < lo
    least = np.where(undershoots, end, first)
    slow = np.flatnonzero(undershoots)
    if slow.size:
        counts = np.flatnonzero(np.isfinite(curve.time))
        order = np.argsort(curve.time[counts], kind="stable")
        times = curve.time[counts][order]
        i = np.searchsorted(times, lo[slow], "left")
        size = np.searchsorted(times, hi[slow], "right") - i
        k = np.frexp(np.maximum(size, 1))[1] - 1  # floor(log2(size))
        # table[k, i]: the least count among the 2**k from position i.
        table = np.full((k.max() + 1, counts.size + 1), end)
        table[0, :-1] = counts[order]
        for j in range(1, len(table)):
            half = 1 << (j - 1)
            table[j, :-half] = np.minimum(table[j - 1, :-half], table[j - 1, half:])
        pair = np.minimum(table[k, i], table[k, i + size - (1 << k)])
        least[slow] = np.where(size > 0, pair, end)
    return least


def _candidates(one: _Curve, other: _Curve, tsync: float) -> tuple[np.ndarray, ...]:
    """``(value, n_one, n_other)``: each admissible count of ``one`` with the
    least count of ``other`` whose time lies in ``[T - tsync, T]``, ``T``
    being its own time and the pair's value; only pairs within ``N``."""
    own = np.flatnonzero(np.isfinite(one.time))
    value = one.time[own]
    partner = _least_count(other, value - tsync, value)
    keep = own + partner < one.time.size
    return value[keep], own[keep], partner[keep]


def _domain(config: CESMConfiguration, comp: str, total_nodes: int) -> np.ndarray:
    """The counts :func:`formulate_layout` lets ``comp`` take (maybe none)."""
    allowed = config.allowed(comp)
    if allowed is None:
        lo = max(1, config.component_min_nodes(comp))
        return np.arange(lo, total_nodes + 1)
    trimmed = allowed.up_to(total_nodes)
    if trimmed is None:
        return np.zeros(0, dtype=np.int64)
    return np.fromiter(trimmed.values, dtype=np.int64, count=len(trimmed))


def direct_layout(
    models: Mapping[str, PerformanceModel],
    total_nodes: int,
    config: CESMConfiguration,
    *,
    layout: Layout = Layout.HYBRID,
    tsync: float | None = None,
    minor_models: Mapping[str, PerformanceModel] | None = None,
) -> tuple[Allocation, float] | None:
    """The Table I optimum of ``layout`` by direct scan, or ``None`` when the
    problem :func:`formulate_layout` builds from the same inputs has no
    feasible allocation.

    Every side of a layout's makespan is a sum of univariate curves under
    node budgets, so prefix minima ("the best time on at most ``r`` nodes")
    answer each side exactly for every budget at once:

    * *fully sequential* — separable: each component at its best on ``N``;
    * *sequential group* — for each ocean count ``o``, ice, land and
      atmosphere each take their best on ``N - o``;
    * *hybrid* — ``h(m)``, the least ``max(T_ice, T_lnd)`` with
      ``n_ice + n_lnd <= m`` and ``|T_ice - T_lnd| <= tsync``, is the prefix
      minimum, over node cost, of the candidate pairs' values
      (:func:`_candidates`): every feasible pair is dominated by the
      candidate of its slower side;
      then one argmin over the atmosphere's counts of
      ``max(h(n_atm) + T_atm(n_atm), best_ocn(N - n_atm))``.

    No convexity is assumed.  A minor component's curve is added to its
    host's (rtm on lnd, cpl on atm), so Tsync compares land + rtm with ice,
    as the MINLP does; like :func:`formulate_layout`, only the hybrid layout
    has Tsync rows.  Among co-optimal allocations the smallest count of the
    scanned component (atmosphere, ocean) wins, then the smallest ice count
    and the smallest land count at the optimal ice/land level, and every side
    component its fastest count within its budget.  The objective is
    :func:`layout_total_time` at the model-predicted times.
    """
    missing = set(COMPONENTS) - set(models)
    if missing:
        raise ValueError(f"missing fitted models for {sorted(missing)}")
    if tsync is not None and tsync < 0:
        raise ValueError(f"tsync must be nonnegative, got {tsync}")
    N = int(total_nodes)
    minors = {MINOR_HOSTS[m]: model for m, model in (minor_models or {}).items()}
    domain = {comp: _domain(config, comp, N) for comp in COMPONENTS}
    curve = {
        comp: _curve(models[comp], domain[comp], N, minors.get(comp))
        for comp in COMPONENTS
    }
    ice, lnd, atm, ocn = (curve[c] for c in ("ice", "lnd", "atm", "ocn"))
    if layout is Layout.HYBRID:
        # Without Tsync every window is open below.
        sync = np.inf if tsync is None else tsync
        (v_i, i_i, l_i), (v_l, l_l, i_l) = (
            _candidates(ice, lnd, sync), _candidates(lnd, ice, sync)
        )
        value, n_ice, n_lnd = np.r_[v_i, v_l], np.r_[i_i, i_l], np.r_[l_i, l_l]
        inner = np.full(N + 1, np.inf)
        np.minimum.at(inner, n_ice + n_lnd, value)
        inner = np.minimum.accumulate(inner)
        n_atm = domain["atm"]
        sides = np.maximum(inner[n_atm] + atm.time[n_atm], ocn.best[N - n_atm])
        if not sides.size or not np.isfinite(sides.min()):
            return None
        a = int(n_atm[np.argmin(sides)])
        at_level = np.flatnonzero((n_ice + n_lnd <= a) & (value == inner[a]))
        pick = at_level[np.lexsort((n_lnd[at_level], n_ice[at_level]))[0]]
        nodes = {
            "ice": int(n_ice[pick]),
            "lnd": int(n_lnd[pick]),
            "atm": a,
            "ocn": ocn.fastest(N - a),
        }
    elif layout is Layout.SEQUENTIAL_GROUP:
        n_ocn = domain["ocn"]
        rest = N - n_ocn
        group = ice.best[rest] + lnd.best[rest] + atm.best[rest]
        sides = np.maximum(group, ocn.time[n_ocn])
        if not sides.size or not np.isfinite(sides.min()):
            return None
        o = int(n_ocn[np.argmin(sides)])
        nodes = {c: curve[c].fastest(N - o) for c in ("ice", "lnd", "atm")}
        nodes["ocn"] = o
    else:  # FULLY_SEQUENTIAL
        if not all(np.isfinite(curve[c].best[N]) for c in COMPONENTS):
            return None
        nodes = {c: curve[c].fastest(N) for c in COMPONENTS}
    allocation = Allocation({c: nodes[c] for c in COMPONENTS})
    times = {c: float(models[c].time(allocation[c])) for c in COMPONENTS}
    for minor, model in (minor_models or {}).items():
        times[minor] = float(model.time(allocation[MINOR_HOSTS[minor]]))
    return allocation, float(layout_total_time(layout, times))


def allocation_from_solution(solution: Solution) -> Allocation:
    """Read the integer node allocation back out of a MINLP solution."""
    nodes = {}
    for comp in COMPONENTS:
        key = f"n_{comp}"
        if key not in solution.values:
            raise KeyError(f"solution has no variable {key!r}")
        nodes[comp] = int(round(solution.values[key]))
    return Allocation(nodes)


def footprint(layout: Layout, allocation: Allocation, total_nodes: int) -> int:
    """Machine nodes actually occupied by ``allocation`` under ``layout``."""
    if layout is Layout.HYBRID:
        return allocation["atm"] + allocation["ocn"]
    if layout is Layout.SEQUENTIAL_GROUP:
        group = max(allocation["ice"], allocation["lnd"], allocation["atm"])
        return group + allocation["ocn"]
    return max(allocation[c] for c in COMPONENTS)
