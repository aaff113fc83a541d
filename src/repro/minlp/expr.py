"""Algebraic expression trees with evaluation and symbolic differentiation.

This module is the foundation of the MINLP toolkit (the stand-in for the
automatic-differentiation service AMPL provided to MINOTAUR in the paper).
Expressions are immutable trees built with ordinary Python operators::

    x = VarRef("x")
    f = 3.0 / x + 2.0 * x ** 1.5 + 1.0   # a/n + b*n^c + d
    f.evaluate({"x": 4.0})
    g = f.diff("x")                       # symbolic derivative, also an Expr

Design notes
------------
* Nodes are hashable and structurally comparable, which lets callers
  de-duplicate cuts and lets tests assert on simplified forms.
* ``evaluate`` accepts scalars **or numpy arrays** in the value mapping, so
  a single expression vectorizes over a sweep of points for free (this is
  the numpy-broadcasting idiom: no per-point Python loop).
* Constant folding happens at construction time (``x*0 -> 0``, ``x+0 -> x``
  etc.), keeping derivative trees small without a separate simplifier pass.
* ``linear_coefficients`` extracts ``(coeffs, constant)`` when an expression
  is affine; LP/MILP layers use it to route linear constraints away from the
  nonlinear machinery.
* Sums take one pass: :func:`sum_exprs` builds a row of ``n`` terms in
  ``O(n)`` — the same tree as folding ``+`` left to right, which rebuilds
  the term tuple at every step.  A 241-binary sweet-spot row is built,
  substituted and differentiated through it.
* Analysis is memoized because nodes are immutable: a composite node
  computes ``variables()``, ``diff(var)`` per variable and
  ``linear_coefficients()`` (which ``is_linear()`` reads) once, on first
  call, and keeps the answer in a slot.  Only the node that was asked keeps
  one: its walk handles the children through the unmemoized ``_diff`` /
  ``_linear_coefficients``, so a row of 241 terms holds one memo, not 242.
  Problem transforms, the root NLP, the fixed-subproblem LP and the cut
  pool all ask these of the same row bodies, and each row is analysed
  once per solve.
* Solvers evaluate a tree through :meth:`Expr.compiled`: ``evaluate`` as
  straight-line Python generated from the tree, the same operations in the
  same order on the same scalar types.  The generated source holds no
  number and no name: variables are read by position and constants bound
  by reference, so every tree of one shape shares one code object.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Hashable, Iterable, Mapping
from typing import Union

import numpy as np

Number = Union[int, float]
ExprLike = Union["Expr", Number]

def as_expr(value: ExprLike) -> "Expr":
    """Coerce a Python number into a :class:`Constant`; pass through Exprs."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Constant(float(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


class Expr:
    """Base class for immutable expression nodes."""

    __slots__ = ()

    # -- construction via operators ------------------------------------

    def __add__(self, other: ExprLike) -> "Expr":
        return _add(self, as_expr(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return _add(as_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return _add(self, _neg(as_expr(other)))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return _add(as_expr(other), _neg(self))

    def __mul__(self, other: ExprLike) -> "Expr":
        return _mul(self, as_expr(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return _mul(as_expr(other), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return _div(self, as_expr(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return _div(as_expr(other), self)

    def __pow__(self, other: ExprLike) -> "Expr":
        return _pow(self, as_expr(other))

    def __neg__(self) -> "Expr":
        return _neg(self)

    def __pos__(self) -> "Expr":
        return self

    # -- relations (used by the modeling layer) -------------------------

    def __le__(self, other: ExprLike) -> "Relation":
        return Relation(self - as_expr(other), lb=-math.inf, ub=0.0)

    def __ge__(self, other: ExprLike) -> "Relation":
        return Relation(self - as_expr(other), lb=0.0, ub=math.inf)

    # NOTE: __eq__ stays structural equality (below); use Relation.equals /
    # ``Model.add(expr, eq=rhs)`` for equality constraints.

    # -- core protocol ---------------------------------------------------

    def evaluate(self, values: Mapping[str, Number | np.ndarray]):
        """Evaluate with variable values from ``values`` (scalars or arrays)."""
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        """Return the partial derivative with respect to variable ``var``."""
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        """Names of all variables appearing in the tree."""
        raise NotImplementedError

    def compiled(self, index: Mapping[str, Hashable] | None = None) -> Callable:
        """:meth:`evaluate` for scalar values, as one generated function.

        The function takes one container and reads variable ``name`` from
        ``container[index[name]]`` — from ``container[name]`` without an
        ``index``, so ``self.compiled()(values)`` is ``self.evaluate(values)``
        for a mapping of scalars, bit for bit, warnings and errors included
        (a NaN's sign bit aside: CPython's float ``+``, ``-`` and ``*`` do not
        fix it when both operands are NaN, not even for ``evaluate``).
        """
        source, consts, names = self._code()
        keys = names if index is None else tuple(index[n] for n in names)
        return _factory(source)(consts, keys)

    def _code(self) -> tuple[str, tuple[float, ...], tuple[str, ...]]:
        """``(source, constants, variables)``: what :meth:`compiled` binds."""
        names = tuple(sorted(self.variables()))
        gen = _Codegen(names)
        result = gen.operand(self)
        return gen.source(result), tuple(gen.consts), names

    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expr) and self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self._key())

    # -- analysis ----------------------------------------------------------

    def is_linear(self) -> bool:
        """True if the expression is affine in its variables."""
        raise NotImplementedError

    def linear_coefficients(self) -> tuple[dict[str, float], float]:
        """Decompose an affine expression into ``(coeffs, constant)``.

        Raises :class:`NonlinearExpressionError` for nonlinear trees.
        """
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Return a copy with variables replaced by expressions."""
        raise NotImplementedError


class NonlinearExpressionError(ValueError):
    """Raised when linear coefficients are requested from a nonlinear tree."""


class Constant(Expr):
    """A literal floating-point value."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            raise TypeError(f"Constant requires a number, got {value!r}")
        object.__setattr__(self, "value", float(value))

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Expr nodes are immutable")

    def evaluate(self, values):
        return self.value

    def diff(self, var: str) -> Expr:
        return ZERO

    _diff = diff

    def variables(self) -> frozenset[str]:
        return frozenset()

    def is_linear(self) -> bool:
        return True

    def linear_coefficients(self):
        return {}, self.value

    _linear_coefficients = linear_coefficients

    def substitute(self, mapping):
        return self

    def _key(self):
        return ("const", self.value)

    def __repr__(self) -> str:
        return f"{self.value:g}"


class VarRef(Expr):
    """A reference to a decision variable, identified by name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"variable name must be a non-empty string: {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def evaluate(self, values):
        try:
            return values[self.name]
        except KeyError:
            raise KeyError(f"no value provided for variable {self.name!r}") from None

    def diff(self, var: str) -> Expr:
        return ONE if var == self.name else ZERO

    _diff = diff

    def variables(self) -> frozenset[str]:
        return frozenset((self.name,))

    def is_linear(self) -> bool:
        return True

    def linear_coefficients(self):
        return {self.name: 1.0}, 0.0

    _linear_coefficients = linear_coefficients

    def substitute(self, mapping):
        return mapping.get(self.name, self)

    def _key(self):
        return ("var", self.name)

    def __repr__(self) -> str:
        return self.name


class _Composite(Expr):
    """A node with children: ``variables()``, each ``diff(var)``,
    ``linear_coefficients()`` (and so ``is_linear()``) and the generated
    code are computed once and kept in a slot (the node cannot change under
    them).

    A nonlinear node keeps its verdict as the error's message, never as the
    exception: a stored exception's traceback would pin the frames that
    raised it.  The public ``linear_coefficients()`` hands out a fresh dict,
    so a caller may mutate its answer.
    """

    __slots__ = ("_vars", "_diffs", "_affine", "_compiled")

    def variables(self) -> frozenset[str]:
        out = getattr(self, "_vars", None)  # an unset slot reads as None
        if out is None:
            out = self._collect_variables()
            object.__setattr__(self, "_vars", out)
        return out

    def diff(self, var: str) -> Expr:
        memo = getattr(self, "_diffs", None)
        if memo is None:
            memo = {}
            object.__setattr__(self, "_diffs", memo)
        out = memo.get(var)
        if out is None:
            out = memo[var] = self._diff(var)
        return out

    def _affine_memo(self) -> tuple[dict[str, float], float] | str:
        """``(coeffs, constant)``, or the message of a nonlinear verdict."""
        out = getattr(self, "_affine", None)
        if out is None:
            try:
                out = self._linear_coefficients()
            except NonlinearExpressionError as exc:
                out = str(exc)
            object.__setattr__(self, "_affine", out)
        return out

    def linear_coefficients(self):
        out = self._affine_memo()
        if type(out) is str:
            raise NonlinearExpressionError(out)
        coeffs, const = out
        return dict(coeffs), const

    def is_linear(self) -> bool:
        return type(self._affine_memo()) is not str

    def _code(self):
        out = getattr(self, "_compiled", None)
        if out is None:
            out = Expr._code(self)
            object.__setattr__(self, "_compiled", out)
        return out

    def _collect_variables(self) -> frozenset[str]:
        raise NotImplementedError

    def _diff(self, var: str) -> Expr:
        """:meth:`diff` computed, children walked unmemoized."""
        raise NotImplementedError

    def _linear_coefficients(self) -> tuple[dict[str, float], float]:
        """:meth:`linear_coefficients` computed, children walked unmemoized."""
        raise NotImplementedError


class _NAry(_Composite):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]) -> None:
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def _collect_variables(self) -> frozenset[str]:
        return frozenset().union(*[t.variables() for t in self.terms])


class Add(_NAry):
    """Sum of two or more terms (flattened at construction)."""

    __slots__ = ()

    def evaluate(self, values):
        total = self.terms[0].evaluate(values)
        for t in self.terms[1:]:
            total = total + t.evaluate(values)
        return total

    def _diff(self, var: str) -> Expr:
        return sum_exprs([t._diff(var) for t in self.terms])

    def _linear_coefficients(self):
        coeffs: dict[str, float] = {}
        const = 0.0
        for t in self.terms:
            c, k = t._linear_coefficients()
            const += k
            for name, v in c.items():
                coeffs[name] = coeffs.get(name, 0.0) + v
        return coeffs, const

    def substitute(self, mapping):
        return sum_exprs([t.substitute(mapping) for t in self.terms])

    def _key(self):
        return ("add",) + tuple(t._key() for t in self.terms)

    def __repr__(self) -> str:
        return "(" + " + ".join(map(repr, self.terms)) + ")"


class Mul(_NAry):
    """Product of two or more factors (flattened at construction)."""

    __slots__ = ()

    def evaluate(self, values):
        total = self.terms[0].evaluate(values)
        for t in self.terms[1:]:
            total = total * t.evaluate(values)
        return total

    def _diff(self, var: str) -> Expr:
        # Product rule over n factors.
        parts = []
        for i, t in enumerate(self.terms):
            dt = t._diff(var)
            if _is_zero(dt):
                continue
            others = [f for j, f in enumerate(self.terms) if j != i]
            parts.append(prod_exprs([dt] + others))
        return sum_exprs(parts)

    def _linear_coefficients(self):
        # Affine only when at most one factor is non-constant and that factor
        # is itself affine.
        const_part = 1.0
        nonconst: list[Expr] = []
        for t in self.terms:
            if isinstance(t, Constant):
                const_part *= t.value
            else:
                nonconst.append(t)
        if not nonconst:
            return {}, const_part
        if len(nonconst) > 1:
            raise NonlinearExpressionError(f"nonlinear product: {self!r}")
        coeffs, k = nonconst[0]._linear_coefficients()
        return {n: v * const_part for n, v in coeffs.items()}, k * const_part

    def substitute(self, mapping):
        return prod_exprs([t.substitute(mapping) for t in self.terms])

    def _key(self):
        return ("mul",) + tuple(t._key() for t in self.terms)

    def __repr__(self) -> str:
        return "(" + " * ".join(map(repr, self.terms)) + ")"


class Div(_Composite):
    """Quotient ``num / den``."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr) -> None:
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def evaluate(self, values):
        den = self.den.evaluate(values)
        return self.num.evaluate(values) / den

    def _diff(self, var: str) -> Expr:
        # (u/v)' = u'/v - u v'/v^2
        du = self.num._diff(var)
        dv = self.den._diff(var)
        terms = []
        if not _is_zero(du):
            terms.append(_div(du, self.den))
        if not _is_zero(dv):
            terms.append(_neg(_div(_mul(self.num, dv), _pow(self.den, Constant(2.0)))))
        return sum_exprs(terms)

    def _collect_variables(self) -> frozenset[str]:
        return self.num.variables() | self.den.variables()

    def _linear_coefficients(self):
        if isinstance(self.den, Constant):
            if self.den.value == 0.0:
                raise ZeroDivisionError(f"constant division by zero in {self!r}")
            coeffs, k = self.num._linear_coefficients()
            return {n: v / self.den.value for n, v in coeffs.items()}, k / self.den.value
        raise NonlinearExpressionError(f"nonlinear quotient: {self!r}")

    def substitute(self, mapping):
        return _div(self.num.substitute(mapping), self.den.substitute(mapping))

    def _key(self):
        return ("div", self.num._key(), self.den._key())

    def __repr__(self) -> str:
        return f"({self.num!r} / {self.den!r})"


class Pow(_Composite):
    """Power ``base ** exponent``: any base, a :class:`Constant` exponent
    (the fitted ``c`` of ``b·n^c``, a number once the fit is done)."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Constant) -> None:
        if not isinstance(exponent, Constant):
            raise TypeError(f"the exponent of a power must be a number, got {exponent!r}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def evaluate(self, values):
        base = self.base.evaluate(values)
        if isinstance(base, np.ndarray):
            return np.power(base, self.exponent.value)
        return math.pow(base, self.exponent.value)

    def _diff(self, var: str) -> Expr:
        db = self.base._diff(var)
        if _is_zero(db):
            return ZERO
        # d/dx b(x)^k = k * b^(k-1) * b'
        return prod_exprs([self.exponent, _pow(self.base, self.exponent - 1.0), db])

    def _collect_variables(self) -> frozenset[str]:
        return self.base.variables()

    def _linear_coefficients(self):
        if self.exponent.value == 1.0:
            return self.base._linear_coefficients()
        raise NonlinearExpressionError(f"nonlinear power: {self!r}")

    def substitute(self, mapping):
        return _pow(self.base.substitute(mapping), self.exponent)

    def _key(self):
        return ("pow", self.base._key(), self.exponent._key())

    def __repr__(self) -> str:
        return f"({self.base!r} ** {self.exponent!r})"


class Relation:
    """A one- or two-sided constraint ``lb <= body <= ub`` on an expression.

    Produced by ``expr <= rhs`` / ``expr >= rhs`` comparisons, or explicitly
    for equalities and ranges.  Consumed by the modeling layer.
    """

    __slots__ = ("body", "lb", "ub")

    def __init__(self, body: Expr, lb: float, ub: float) -> None:
        if lb > ub:
            raise ValueError(f"infeasible relation bounds: lb={lb} > ub={ub}")
        self.body = body
        self.lb = float(lb)
        self.ub = float(ub)

    @classmethod
    def equals(cls, lhs: ExprLike, rhs: ExprLike) -> "Relation":
        """Build the equality constraint ``lhs == rhs``."""
        body = as_expr(lhs) - as_expr(rhs)
        return cls(body, 0.0, 0.0)

    def __repr__(self) -> str:
        return f"Relation({self.lb} <= {self.body!r} <= {self.ub})"


# ---------------------------------------------------------------------------
# Simplifying constructors
# ---------------------------------------------------------------------------

ZERO = Constant(0.0)
ONE = Constant(1.0)


def _is_zero(e: Expr) -> bool:
    """``e == ZERO`` in O(1): only a Constant's key can equal ZERO's."""
    return type(e) is Constant and e.value == 0.0


def _add(a: Expr, b: Expr) -> Expr:
    terms: list[Expr] = []
    const = 0.0
    for t in (a, b):
        if isinstance(t, Add):
            sub = t.terms
        else:
            sub = (t,)
        for s in sub:
            if isinstance(s, Constant):
                const += s.value
            else:
                terms.append(s)
    if const != 0.0 or not terms:
        terms.append(Constant(const))
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def _neg(a: Expr) -> Expr:
    if isinstance(a, Constant):
        return Constant(-a.value)
    return _mul(Constant(-1.0), a)


def _mul(a: Expr, b: Expr) -> Expr:
    factors: list[Expr] = []
    const = 1.0
    for t in (a, b):
        if isinstance(t, Mul):
            sub = t.terms
        else:
            sub = (t,)
        for s in sub:
            if isinstance(s, Constant):
                const *= s.value
            else:
                factors.append(s)
    if const == 0.0:
        return ZERO
    if const != 1.0 or not factors:
        factors.insert(0, Constant(const))
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Constant):
        if b.value == 0.0:
            raise ZeroDivisionError("division by constant zero")
        if b.value == 1.0:
            return a
        if isinstance(a, Constant):
            return Constant(a.value / b.value)
        return _mul(Constant(1.0 / b.value), a)
    if isinstance(a, Constant) and a.value == 0.0:
        return ZERO
    return Div(a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Constant):
        if b.value == 0.0:
            return ONE
        if b.value == 1.0:
            return a
        if isinstance(a, Constant):
            return Constant(math.pow(a.value, b.value))
    return Pow(a, b)  # refuses a variable exponent


def sum_exprs(terms: Iterable[Expr]) -> Expr:
    """Sum expressions in one pass (ZERO for none).

    The tree is the one folding ``_add`` left to right from ZERO builds:
    operands' Add terms spliced in order, constants summed in the order met
    into one trailing Constant, dropped when exactly 0.  The fold does that
    in ``O(n^2)``, rebuilding the term tuple at each step; this keeps the
    running terms and constant instead.
    """
    out: list[Expr] = []
    const = 0.0
    for t in terms:
        operands = (t,)
        if len(out) == 1 and const == 0.0 and isinstance(out[0], Add):
            # The fold's running sum is this lone nested Add, which its
            # next step splices like any other operand.
            operands = (out.pop(), t)
        for operand in operands:
            for s in operand.terms if isinstance(operand, Add) else (operand,):
                if isinstance(s, Constant):
                    const += s.value
                else:
                    out.append(s)
    if const != 0.0 or not out:
        out.append(Constant(const))
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def prod_exprs(factors: list[Expr]) -> Expr:
    """Multiply a list of expressions (ONE for an empty list)."""
    out: Expr = ONE
    for f in factors:
        out = _mul(out, f)
    return out


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------

#: What generated code calls: ``Pow`` on scalars, as ``evaluate``.
_CODE_GLOBALS = {"_pow": math.pow}


class _Codegen:
    """One statement per operation, in ``evaluate``'s order: ``Add`` and
    ``Mul`` fold left, ``Div`` takes its denominator first."""

    def __init__(self, names: tuple[str, ...]) -> None:
        self.slots = {name: f"x{i}" for i, name in enumerate(names)}
        self.consts: list[float] = []
        self.lines: list[str] = []

    def _temp(self, expression: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {expression}")
        return name

    def operand(self, node: Expr) -> str:
        kind = type(node)
        if kind is Constant:
            self.consts.append(node.value)
            return f"c{len(self.consts) - 1}"
        if kind is VarRef:
            return self.slots[node.name]
        if kind is Add or kind is Mul:
            op = " + " if kind is Add else " * "
            total = self.operand(node.terms[0])
            for term in node.terms[1:]:
                rhs = self.operand(term)
                total = self._temp(total + op + rhs)
            return total
        if kind is Div:
            den = self.operand(node.den)
            return self._temp(f"{self.operand(node.num)} / {den}")
        if kind is Pow:
            base = self.operand(node.base)
            return self._temp(f"_pow({base}, {self.operand(node.exponent)})")
        raise TypeError(f"cannot compile {kind.__name__}")

    def source(self, result: str) -> str:
        head = ["def make(c, p):"]
        if self.consts:
            head.append("    " + "".join(f"c{i}, " for i in range(len(self.consts))) + "= c")
        if self.slots:
            head.append("    " + "".join(f"p{i}, " for i in range(len(self.slots))) + "= p")
        head.append("    def f(v):")
        body = [f"x{i} = v[p{i}]" for i in range(len(self.slots))] + self.lines
        body.append(f"return {result}")
        return "\n".join(head + ["        " + line for line in body] + ["    return f"])


@functools.lru_cache(maxsize=1024)
def _factory(source: str) -> Callable:
    """``make(constants, keys)`` for one generated source (one tree shape)."""
    namespace = dict(_CODE_GLOBALS)
    exec(compile(source, "<compiled expr>", "exec"), namespace)
    return namespace["make"]


def linearize(expr: Expr, point: Mapping[str, float]) -> Expr:
    """First-order Taylor expansion of ``expr`` around ``point``.

    This is the outer-approximation cut generator (paper eq. (4)):
    ``f(x0) + ∇f(x0)ᵀ (x − x0)`` returned as an affine :class:`Expr`.
    It differentiates ``expr`` on every call; :class:`Linearizer` is the
    differentiate-once form for callers that expand one expression at many
    points, and this function is the oracle its tests compare against.
    """
    f0 = float(expr.evaluate(point))
    terms: list[Expr] = [Constant(f0)]
    for name in sorted(expr.variables()):
        g = float(expr.diff(name).evaluate(point))
        if g != 0.0:
            terms.append(Constant(g) * (VarRef(name) - float(point[name])))
    return sum_exprs(terms)


class Linearizer:
    """``sign * expr`` differentiated and compiled once, expanded at any
    number of points.

    ``sign`` (``1.0`` or ``-1.0``) scales the numbers, not the tree: IEEE
    negation is exact, so ``-1.0`` times ``expr``'s value and partials is
    what ``-expr``'s tree evaluates to, and :meth:`at` returns
    ``linearize(-expr, point)`` from ``expr``'s own (memoized) partials.

    :attr:`nonlinear` names the variables whose partial derivative is not a
    constant.  The tangent depends on the expansion point through those
    coordinates only: where ``∂f/∂x`` is a constant ``c`` the expression is
    ``c·x + h(rest)``, and ``x0`` cancels out of ``f(x0) + c·(x − x0)``.
    """

    __slots__ = ("expr", "sign", "value", "_grads", "nonlinear")

    def __init__(self, expr: Expr, sign: float = 1.0) -> None:
        self.expr = expr
        self.sign = float(sign)
        #: ``expr`` itself (unsigned), compiled.
        self.value = expr.compiled()
        grads = [(name, expr.diff(name)) for name in sorted(expr.variables())]
        self._grads = [(VarRef(name), grad.compiled()) for name, grad in grads]
        self.nonlinear: tuple[str, ...] = tuple(
            name for name, grad in grads if grad.variables()
        )

    def at(self, point: Mapping[str, float]) -> Expr:
        """Same affine expression as ``linearize(sign * expr, point)``.

        In the common shape — two or more terms, no slope of exactly 1.0 and
        no expansion coordinate at 0.0 — the tree is built directly, and its
        coefficients and variables are stored as a walk of it would find
        them (summed in the walk's order), so a consumer analyses nothing.
        The shapes :func:`sum_exprs` folds differently are built by it.
        """
        sign = self.sign
        f0 = sign * float(self.value(point))
        slopes = []
        for ref, grad in self._grads:
            g = sign * float(grad(point))
            if g != 0.0:
                slopes.append((ref, g, float(point[ref.name])))
        if len(slopes) + (f0 != 0.0) < 2 or any(
            g == 1.0 or x0 == 0.0 for _, g, x0 in slopes
        ):
            terms = [Constant(g) * (ref - x0) for ref, g, x0 in slopes]
            return sum_exprs([Constant(f0), *terms])
        terms = []
        coeffs: dict[str, float] = {}
        const = 0.0
        for ref, g, x0 in slopes:
            terms.append(Mul((Constant(g), Add((ref, Constant(-x0))))))
            coeffs[ref.name] = g
            const += -x0 * g
        if f0 != 0.0:
            terms.append(Constant(f0))
            const += f0
        tangent = Add(tuple(terms))
        object.__setattr__(tangent, "_affine", (coeffs, const))
        object.__setattr__(tangent, "_vars", frozenset(coeffs))
        return tangent
