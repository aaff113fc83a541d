"""Export a :class:`Problem` as an AMPL model.

The paper's production path writes the MINLP in AMPL and ships it (via a
Python script) to the NEOS server running MINOTAUR (§V).  This module emits
that artifact from any flat problem in the toolkit, so a model built here
can be cross-checked against real AMPL + MINOTAUR/BARON/Couenne when those
are available.

The exporter covers everything the HSLB formulations use: continuous /
integer / binary variables with bounds, one- and two-sided constraints over
the expression AST (+, *, /, **), minimize/maximize
objectives, and SOS1 sets (emitted via the standard ``sosno``/``ref``
suffixes).
"""

from __future__ import annotations

import math

from repro.minlp.expr import Add, Constant, Div, Expr, Mul, Pow, VarRef
from repro.minlp.problem import Domain, Problem, Sense


def _sanitize(name: str) -> str:
    """AMPL identifiers: letters, digits, underscores."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    text = "".join(out)
    if not text or text[0].isdigit():
        text = "v_" + text
    return text


class _Namer:
    """Collision-free mapping from problem names to AMPL identifiers."""

    def __init__(self) -> None:
        self._map: dict[str, str] = {}
        self._used: set[str] = set()

    def __getitem__(self, name: str) -> str:
        if name not in self._map:
            base = _sanitize(name)
            candidate = base
            i = 2
            while candidate in self._used:
                candidate = f"{base}_{i}"
                i += 1
            self._used.add(candidate)
            self._map[name] = candidate
        return self._map[name]


def _expr_to_ampl(expr: Expr, names: _Namer) -> str:
    if isinstance(expr, Constant):
        v = expr.value
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)
    if isinstance(expr, VarRef):
        return names[expr.name]
    if isinstance(expr, Add):
        return "(" + " + ".join(_expr_to_ampl(t, names) for t in expr.terms) + ")"
    if isinstance(expr, Mul):
        return "(" + " * ".join(_expr_to_ampl(t, names) for t in expr.terms) + ")"
    if isinstance(expr, Div):
        return (
            "("
            + _expr_to_ampl(expr.num, names)
            + " / "
            + _expr_to_ampl(expr.den, names)
            + ")"
        )
    if isinstance(expr, Pow):
        return (
            "("
            + _expr_to_ampl(expr.base, names)
            + " ^ "
            + _expr_to_ampl(expr.exponent, names)
            + ")"
        )
    raise TypeError(f"cannot export expression node {type(expr).__name__}")


def _bounds_suffix(lb: float, ub: float) -> str:
    parts = []
    if math.isfinite(lb):
        parts.append(f">= {lb:g}")
    if math.isfinite(ub):
        parts.append(f"<= {ub:g}")
    return (" " + ", ".join(parts)) if parts else ""


def problem_to_ampl(problem: Problem) -> str:
    """Render ``problem`` as a standalone AMPL model string."""
    names = _Namer()
    lines: list[str] = [f"# AMPL export of problem {problem.name!r}", ""]

    for var in problem.variables:
        kind = ""
        if var.domain is Domain.INTEGER:
            kind = " integer"
        elif var.domain is Domain.BINARY:
            kind = " binary"
        bounds = "" if var.domain is Domain.BINARY else _bounds_suffix(var.lb, var.ub)
        lines.append(f"var {names[var.name]}{kind}{bounds};")
    lines.append("")

    sense = "minimize" if problem.sense is Sense.MINIMIZE else "maximize"
    lines.append(f"{sense} objective: {_expr_to_ampl(problem.objective, names)};")
    lines.append("")

    for con in problem.constraints:
        body = _expr_to_ampl(con.body, names)
        cname = names[f"con_{con.name}"]
        if con.is_equality:
            lines.append(f"subject to {cname}: {body} = {con.lb:g};")
        elif math.isfinite(con.lb) and math.isfinite(con.ub):
            lines.append(
                f"subject to {cname}: {con.lb:g} <= {body} <= {con.ub:g};"
            )
        elif math.isfinite(con.ub):
            lines.append(f"subject to {cname}: {body} <= {con.ub:g};")
        else:
            lines.append(f"subject to {cname}: {body} >= {con.lb:g};")
    if problem.sos1_sets:
        lines.append("")
        lines.append("# SOS1 sets via the standard sosno/ref suffixes")
        lines.append("suffix sosno integer, >= 1;")
        lines.append("suffix ref integer;")
        for idx, sos in enumerate(problem.sos1_sets, start=1):
            for member, weight in zip(sos.members, sos.weights):
                m = names[member]
                lines.append(f"let {m}.sosno := {idx};")
                lines.append(f"let {m}.ref := {weight:g};")
    lines.append("")
    return "\n".join(lines)
