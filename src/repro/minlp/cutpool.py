"""Aged pool of outer-approximation linearization cuts — the one cut builder.

Building an OA cut means linearizing a nonlinear constraint body at a point.
The pool does the symbolic half of that once per constraint per solve (a
compiled row: the ``g <= ub`` form, its gradient expressions, the variables
it is nonlinear in) and memoizes the cuts themselves by **constraint +
quantized linearization point, nonlinear coordinates only** so:

* within one solve, a repeated expansion point returns the cached cut (the
  stable digest name then makes :meth:`BranchAndBound.add_global_cut`'s
  duplicate check a no-op, which correctly fathoms the node instead of
  re-queuing it) — including the point that differs only in a variable the
  row is linear in, e.g. the epigraph ``T`` of ``T >= a/n + b*n^c + d``: the
  tangent at ``(n, T_subproblem)`` and at ``(n, T_master)`` is one inequality
  and is installed once;
* across solves sharing a pool (successive multi-tree masters, warm-started
  service re-solves on the same model family), surviving cuts are
  *reactivated* into the fresh master instead of being rediscovered one
  lazy callback at a time.

Lifecycle: :meth:`begin_solve` opens an epoch and drops the compiled rows of
the previous solve (cuts persist, rows do not — the next solve brings its own
constraint objects), :meth:`cut_for` serves cut tuples (recording pool
hits/misses), :meth:`end_solve` ages every cut — cuts that were **binding**
at the final point stay young, **slack** cuts age and are evicted after
:attr:`max_age` epochs, and an LRU size cap bounds the pool.  All events land
on the ``solver_cut_pool_total`` metric and, when tracing is on,
``oa.cut_pool`` events.

Determinism: a pool is keyed only by exact constraint names and quantized
points and its iteration order is insertion order, so two processes feeding
the same solve sequence build identical pools.  Sharing a pool *across*
solves changes which cuts a master starts with — callers that guarantee
bit-identical replays (the allocation service) must keep per-solve pools
unless cross-solve sharing is explicitly requested.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass

from repro.minlp.expr import Expr, Linearizer
from repro.minlp.problem import Constraint
from repro.obs import telemetry

#: Linearization points are quantized to this many decimals for keying; two
#: points closer than 1e-9 per coordinate produce the same first-order cut
#: to well below solver tolerances.
_POINT_DECIMALS = 9


@dataclass
class _PooledCut:
    """One memoized linearization with its ageing state."""

    name: str
    body: Expr
    lb: float
    ub: float
    born_epoch: int
    idle_epochs: int = 0  # consecutive end-of-solve checks where it was slack


class _CompiledRow:
    """A single-sided nonlinear row as ``g(x) <= ub``, differentiated once.

    ``g(x) >= lb`` is normalized to ``-g(x) <= -lb`` (the caller has asserted
    that side is convex).  Rows are compiled per solve; the cuts built from
    them outlive the solve in the pool.
    """

    __slots__ = ("con", "ub", "tangent")

    def __init__(self, con: Constraint) -> None:
        self.con = con
        if math.isfinite(con.ub):
            body, self.ub = con.body, con.ub
        else:
            body, self.ub = -con.body, -con.lb
        self.tangent = Linearizer(body)


@dataclass
class CutPoolStats:
    hits: int = 0
    misses: int = 0
    reactivated: int = 0
    evicted: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "reactivated": self.reactivated,
            "evicted": self.evicted,
        }


_SLACK_TOL = 1e-6  # a cut this close to a bound at the final point is binding


class OACutPool:
    """Pool of OA cuts keyed by (constraint name, quantized point).

    Only the coordinates the constraint is nonlinear in enter the key: the
    tangent does not depend on the others (:class:`Linearizer`), so two points
    that differ in an epigraph variable alone are one cut, not two rows.

    ``max_cuts`` caps the pool LRU-style (oldest untouched entry evicted
    first); ``max_age`` evicts cuts slack for that many consecutive solve
    epochs.
    """

    def __init__(self, max_cuts: int = 2048, max_age: int = 8) -> None:
        if max_cuts < 1:
            raise ValueError("max_cuts must be positive")
        self.max_cuts = int(max_cuts)
        self.max_age = int(max_age)
        self._cuts: OrderedDict[tuple, _PooledCut] = OrderedDict()
        self._rows: dict[str, _CompiledRow] = {}
        self._epoch = 0
        self.stats = CutPoolStats()

    # -- keying ------------------------------------------------------------

    def _row(self, con: Constraint) -> _CompiledRow:
        row = self._rows.get(con.name)
        if row is None or row.con is not con:
            row = self._rows[con.name] = _CompiledRow(con)
        return row

    def nonlinear_variables(self, con: Constraint) -> tuple[str, ...]:
        """Variables ``con`` is nonlinear in — the ones a cut's point is keyed by."""
        return self._row(con).tangent.nonlinear

    @staticmethod
    def _key(row: _CompiledRow, point: Mapping[str, float]) -> tuple:
        coords = tuple(
            (v, round(float(point[v]), _POINT_DECIMALS))
            for v in row.tangent.nonlinear
        )
        return (row.con.name, coords)

    @staticmethod
    def _name(key: tuple) -> str:
        digest = hashlib.blake2b(repr(key).encode(), digest_size=8).hexdigest()
        return f"oa_{key[0]}_{digest}"

    # -- lifecycle ---------------------------------------------------------

    def begin_solve(self) -> int:
        """Open a solve epoch; returns the epoch index (useful in traces)."""
        self._rows.clear()
        self._epoch += 1
        return self._epoch

    def cut_for(
        self, con: Constraint, point: Mapping[str, float]
    ) -> tuple[str, Expr, float, float]:
        """The linearization cut of ``con`` at ``point`` (memoized).

        Returns ``(name, body, lb, ub)`` with a stable content-derived name:
        re-requesting a cut yields the identical name, so downstream
        duplicate checks dedup it naturally.
        """
        row = self._row(con)
        key = self._key(row, point)
        entry = self._cuts.get(key)
        if entry is not None:
            self._cuts.move_to_end(key)
            entry.idle_epochs = 0
            self.stats.hits += 1
            telemetry.record_cut_pool("hit")
            return (entry.name, entry.body, entry.lb, entry.ub)
        name = self._name(key)
        body, lb, ub = row.tangent.at(point), -math.inf, row.ub
        self._cuts[key] = _PooledCut(name, body, lb, ub, born_epoch=self._epoch)
        self.stats.misses += 1
        telemetry.record_cut_pool("miss")
        self._enforce_cap()
        return (name, body, lb, ub)

    def active_cuts(self) -> list[tuple[str, Expr, float, float]]:
        """Every live cut, insertion-ordered — preinstalled into new masters.

        Cuts born in *earlier* epochs count as reactivations (work a fresh
        solve did not have to redo); current-epoch cuts are simply live.
        """
        out = []
        reactivated = 0
        for entry in self._cuts.values():
            if entry.born_epoch < self._epoch:
                reactivated += 1
            out.append((entry.name, entry.body, entry.lb, entry.ub))
        if reactivated:
            self.stats.reactivated += reactivated
            telemetry.record_cut_pool("reactivated", reactivated)
        return out

    def end_solve(self, point: Mapping[str, float] | None = None) -> int:
        """Close the epoch: age slack cuts, evict the expired; returns evictions.

        ``point`` is the solve's final solution.  Cuts binding there (body
        within ``_SLACK_TOL`` of a bound) reset their idle counter; slack
        cuts — and every cut when no point is available — age by one epoch.
        """
        expired: list[tuple] = []
        for key, entry in self._cuts.items():
            slack = True
            if point is not None:
                try:
                    g = float(entry.body.evaluate(point))
                except (KeyError, TypeError):  # point lacks a cut variable
                    g = None
                if g is not None:
                    slack = (
                        g < entry.ub - _SLACK_TOL
                        and g > entry.lb + _SLACK_TOL
                    )
            if slack:
                entry.idle_epochs += 1
                if entry.idle_epochs >= self.max_age:
                    expired.append(key)
            else:
                entry.idle_epochs = 0
        for key in expired:
            del self._cuts[key]
        if expired:
            self.stats.evicted += len(expired)
            telemetry.record_cut_pool("evicted", len(expired))
        return len(expired)

    def _enforce_cap(self) -> None:
        evicted = 0
        while len(self._cuts) > self.max_cuts:
            self._cuts.popitem(last=False)
            evicted += 1
        if evicted:
            self.stats.evicted += evicted
            telemetry.record_cut_pool("evicted", evicted)

    def __len__(self) -> int:
        return len(self._cuts)

    @property
    def epoch(self) -> int:
        return self._epoch
