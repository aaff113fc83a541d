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
  computes ``variables()`` and ``is_linear()`` once, on first call, and
  keeps the answer in a slot.  Problem transforms ask both of every
  constraint body they copy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from typing import Union

import numpy as np

Number = Union[int, float]
ExprLike = Union["Expr", Number]

_EVAL_FUNCS = {
    "log": np.log,
    "exp": np.exp,
    "sqrt": np.sqrt,
}


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

    def __rpow__(self, other: ExprLike) -> "Expr":
        return _pow(as_expr(other), self)

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
        try:
            self.linear_coefficients()
        except NonlinearExpressionError:
            return False
        return True

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

    def variables(self) -> frozenset[str]:
        return frozenset()

    def is_linear(self) -> bool:
        return True

    def linear_coefficients(self):
        return {}, self.value

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

    def variables(self) -> frozenset[str]:
        return frozenset((self.name,))

    def is_linear(self) -> bool:
        return True

    def linear_coefficients(self):
        return {self.name: 1.0}, 0.0

    def substitute(self, mapping):
        return mapping.get(self.name, self)

    def _key(self):
        return ("var", self.name)

    def __repr__(self) -> str:
        return self.name


class _Composite(Expr):
    """A node with children: ``variables()`` and ``is_linear()`` are
    computed once and kept in a slot (the node cannot change under them)."""

    __slots__ = ("_vars", "_linear")

    def variables(self) -> frozenset[str]:
        out = getattr(self, "_vars", None)  # an unset slot reads as None
        if out is None:
            out = self._collect_variables()
            object.__setattr__(self, "_vars", out)
        return out

    def is_linear(self) -> bool:
        out = getattr(self, "_linear", None)
        if out is None:
            out = Expr.is_linear(self)
            object.__setattr__(self, "_linear", out)
        return out

    def _collect_variables(self) -> frozenset[str]:
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

    def diff(self, var: str) -> Expr:
        return sum_exprs([t.diff(var) for t in self.terms])

    def linear_coefficients(self):
        coeffs: dict[str, float] = {}
        const = 0.0
        for t in self.terms:
            c, k = t.linear_coefficients()
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

    def diff(self, var: str) -> Expr:
        # Product rule over n factors.
        parts = []
        for i, t in enumerate(self.terms):
            dt = t.diff(var)
            if dt == ZERO:
                continue
            others = [f for j, f in enumerate(self.terms) if j != i]
            parts.append(prod_exprs([dt] + others))
        return sum_exprs(parts)

    def linear_coefficients(self):
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
        coeffs, k = nonconst[0].linear_coefficients()
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

    def diff(self, var: str) -> Expr:
        # (u/v)' = u'/v - u v'/v^2
        du = self.num.diff(var)
        dv = self.den.diff(var)
        terms = []
        if du != ZERO:
            terms.append(_div(du, self.den))
        if dv != ZERO:
            terms.append(_neg(_div(_mul(self.num, dv), _pow(self.den, Constant(2.0)))))
        return sum_exprs(terms)

    def _collect_variables(self) -> frozenset[str]:
        return self.num.variables() | self.den.variables()

    def linear_coefficients(self):
        if isinstance(self.den, Constant):
            if self.den.value == 0.0:
                raise ZeroDivisionError(f"constant division by zero in {self!r}")
            coeffs, k = self.num.linear_coefficients()
            return {n: v / self.den.value for n, v in coeffs.items()}, k / self.den.value
        raise NonlinearExpressionError(f"nonlinear quotient: {self!r}")

    def substitute(self, mapping):
        return _div(self.num.substitute(mapping), self.den.substitute(mapping))

    def _key(self):
        return ("div", self.num._key(), self.den._key())

    def __repr__(self) -> str:
        return f"({self.num!r} / {self.den!r})"


class Pow(_Composite):
    """Power ``base ** exponent`` (either side may contain variables)."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def evaluate(self, values):
        base = self.base.evaluate(values)
        exponent = self.exponent.evaluate(values)
        return np.power(base, exponent) if isinstance(
            base, np.ndarray
        ) or isinstance(exponent, np.ndarray) else math.pow(base, exponent)

    def diff(self, var: str) -> Expr:
        db = self.base.diff(var)
        de = self.exponent.diff(var)
        if de == ZERO:
            if db == ZERO:
                return ZERO
            # d/dx b(x)^k = k * b^(k-1) * b'
            return prod_exprs(
                [self.exponent, _pow(self.base, self.exponent - 1.0), db]
            )
        if db == ZERO:
            # d/dx k^e(x) = k^e * ln(k) * e'
            return prod_exprs([self, log(self.base), de])
        # General case: b^e = exp(e ln b)
        return _mul(self, _add(_mul(de, log(self.base)), _div(_mul(self.exponent, db), self.base)))

    def _collect_variables(self) -> frozenset[str]:
        return self.base.variables() | self.exponent.variables()

    def linear_coefficients(self):
        if not self.variables():
            return {}, float(self.evaluate({}))
        if isinstance(self.exponent, Constant) and self.exponent.value == 1.0:
            return self.base.linear_coefficients()
        raise NonlinearExpressionError(f"nonlinear power: {self!r}")

    def substitute(self, mapping):
        return _pow(self.base.substitute(mapping), self.exponent.substitute(mapping))

    def _key(self):
        return ("pow", self.base._key(), self.exponent._key())

    def __repr__(self) -> str:
        return f"({self.base!r} ** {self.exponent!r})"


class Unary(_Composite):
    """Elementary transcendental function applied to a sub-expression."""

    __slots__ = ("func", "arg")

    _DERIVS = {
        # f -> lambda arg: f'(arg) as an Expr factory
        "log": lambda arg: _div(ONE, arg),
        "exp": lambda arg: Unary("exp", arg),
        "sqrt": lambda arg: _div(Constant(0.5), Unary("sqrt", arg)),
    }

    def __init__(self, func: str, arg: Expr) -> None:
        if func not in _EVAL_FUNCS:
            raise ValueError(f"unsupported function {func!r}")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def evaluate(self, values):
        arg = self.arg.evaluate(values)
        if isinstance(arg, np.ndarray):
            return _EVAL_FUNCS[self.func](arg)
        return float(_EVAL_FUNCS[self.func](arg))

    def diff(self, var: str) -> Expr:
        da = self.arg.diff(var)
        if da == ZERO:
            return ZERO
        return _mul(self._DERIVS[self.func](self.arg), da)

    def _collect_variables(self) -> frozenset[str]:
        return self.arg.variables()

    def linear_coefficients(self):
        if not self.variables():
            return {}, float(self.evaluate({}))
        raise NonlinearExpressionError(f"nonlinear function: {self!r}")

    def substitute(self, mapping):
        return Unary(self.func, self.arg.substitute(mapping))

    def _key(self):
        return ("unary", self.func, self.arg._key())

    def __repr__(self) -> str:
        return f"{self.func}({self.arg!r})"


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
    return Pow(a, b)


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


def log(arg: ExprLike) -> Expr:
    """Natural logarithm node (constant-folds a constant argument)."""
    arg = as_expr(arg)
    if isinstance(arg, Constant):
        return Constant(math.log(arg.value))
    return Unary("log", arg)


def exp(arg: ExprLike) -> Expr:
    """Exponential node (constant-folds a constant argument)."""
    arg = as_expr(arg)
    if isinstance(arg, Constant):
        return Constant(math.exp(arg.value))
    return Unary("exp", arg)


def sqrt(arg: ExprLike) -> Expr:
    """Square-root node (constant-folds a constant argument)."""
    arg = as_expr(arg)
    if isinstance(arg, Constant):
        return Constant(math.sqrt(arg.value))
    return Unary("sqrt", arg)


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
    """``expr`` differentiated once, expanded at any number of points.

    :attr:`nonlinear` names the variables whose partial derivative is not a
    constant.  The tangent depends on the expansion point through those
    coordinates only: where ``∂f/∂x`` is a constant ``c`` the expression is
    ``c·x + h(rest)``, and ``x0`` cancels out of ``f(x0) + c·(x − x0)``.
    """

    __slots__ = ("expr", "_grads", "nonlinear")

    def __init__(self, expr: Expr) -> None:
        self.expr = expr
        self._grads = [(name, expr.diff(name)) for name in sorted(expr.variables())]
        self.nonlinear: tuple[str, ...] = tuple(
            name for name, grad in self._grads if grad.variables()
        )

    def at(self, point: Mapping[str, float]) -> Expr:
        """Same affine expression as ``linearize(self.expr, point)``."""
        terms: list[Expr] = [Constant(float(self.expr.evaluate(point)))]
        for name, grad in self._grads:
            g = float(grad.evaluate(point))
            if g != 0.0:
                terms.append(Constant(g) * (VarRef(name) - float(point[name])))
        return sum_exprs(terms)
