"""Per-solve pool of outer-approximation linearization cuts — the one cut builder.

Building an OA cut means linearizing a nonlinear constraint body at a point.
The pool does the symbolic half of that once per constraint (a compiled row:
the ``g <= ub`` form, its gradient expressions, the variables it is
nonlinear in) and memoizes the cuts themselves by **constraint + quantized
linearization point, nonlinear coordinates only**, so a repeated expansion
point returns the cached cut — the stable digest name then makes
:meth:`BranchAndBound.add_global_cut`'s duplicate check a no-op, which
correctly fathoms the node instead of re-queuing it.  That includes the
point that differs only in a variable the row is linear in, e.g. the
epigraph ``T`` of ``T >= a/n + b*n^c + d``: the tangent at
``(n, T_subproblem)`` and at ``(n, T_master)`` is one inequality and is
installed once.

One pool lives for one solve (single-tree OA, or every master of one
multi-tree run); nothing is shared across solves, so a solve's master
depends only on its problem.  ``stats`` counts memo hits and misses; the
``minlp.oa`` span reports the hits as ``cut_pool_hits``.

Determinism: a pool is keyed only by exact constraint names and quantized
points, and a cut's name is a digest of its key, so two processes feeding
the same solve build identical masters.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass

from repro.minlp.expr import Expr, Linearizer
from repro.minlp.problem import Constraint

#: Linearization points are quantized to this many decimals for keying; two
#: points closer than 1e-9 per coordinate produce the same first-order cut
#: to well below solver tolerances.
_POINT_DECIMALS = 9


class _CompiledRow:
    """A single-sided nonlinear row as ``g(x) <= ub``, differentiated once.

    ``g(x) >= lb`` is normalized to ``-g(x) <= -lb`` (the caller has asserted
    that side is convex).
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


class OACutPool:
    """Pool of OA cuts keyed by (constraint name, quantized point).

    Only the coordinates the constraint is nonlinear in enter the key: the
    tangent does not depend on the others (:class:`Linearizer`), so two points
    that differ in an epigraph variable alone are one cut, not two rows.
    """

    def __init__(self) -> None:
        self._cuts: dict[tuple, tuple[str, Expr, float, float]] = {}
        self._rows: dict[str, _CompiledRow] = {}
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

    # -- serving -----------------------------------------------------------

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
        cut = self._cuts.get(key)
        if cut is not None:
            self.stats.hits += 1
            return cut
        cut = self._cuts[key] = (
            self._name(key), row.tangent.at(point), -math.inf, row.ub
        )
        self.stats.misses += 1
        return cut

    def __len__(self) -> int:
        return len(self._cuts)
