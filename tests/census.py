"""The caller census: which options of a surface some non-test code sets.

A *surface* is a function or class whose keywords (for a dataclass, its
fields) are options.  :func:`orphans` walks every ``.py`` file under
``src/``, ``benchmarks/`` and ``examples/`` and reports each option that no
call there sets.  Tests never count: an option only a test sets is a branch
no user reaches.

A call sets an option by keyword, in its positional slot, or by naming it
as a string literal inside a ``**`` splat.  Calls are matched by the bare
name the surface is called under (``fit_suite(...)``, not
``x.fit_suite(...)``: a method call of the same name is something else).

Forwarding is not setting.  When the value passed is a parameter of the
enclosing function, and that function is itself a surface, the option is
set only if the enclosing parameter is: ``fit_suite(multistart=)`` handing
its own ``multistart`` to ``fit_component`` gives ``fit_component`` a caller
only when something sets ``fit_suite``'s.  A parameter forwarded from any
other function counts as set (that function chose to expose it).
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]

#: Where a non-test caller can live.
CALLER_PLACES = ("src", "benchmarks", "examples")

_POSITIONAL = inspect.Parameter.POSITIONAL_OR_KEYWORD


def options_of(surface, skip: int = 0) -> tuple[int, list[tuple[str, object]]]:
    """``(the positional slot options start at, [(name, kind), ...])``.

    A dataclass's options are its init fields; anything else's are its
    signature's parameters after the first ``skip`` (the operands a caller
    must pass, such as the problem or the application).
    """
    if dataclasses.is_dataclass(surface):
        return skip, [(f.name, _POSITIONAL) for f in dataclasses.fields(surface) if f.init][skip:]
    params = list(inspect.signature(surface).parameters.values())[skip:]
    return skip, [
        (p.name, p.kind) for p in params
        if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]


class _Walker(ast.NodeVisitor):
    """Collect, per surface, every option a call sets directly and every
    option it forwards from an enclosing surface's parameter."""

    def __init__(self, options: dict[str, tuple[int, list[tuple[str, object]]]]) -> None:
        self.options = options
        self.direct = {name: set() for name in options}
        #: (surface, option) -> {(enclosing surface, its parameter), ...}
        self.forwarded: dict[tuple[str, str], set[tuple[str, str]]] = {}
        self._scopes: list[tuple[str | None, set[str]]] = []
        self._classes: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def _visit_function(self, node) -> None:
        args = node.args
        params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
        name = node.name
        if name == "__init__" and self._classes:
            name = self._classes[-1]
        self._scopes.append((name, params))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        args = node.args
        self._scopes.append((None, {a.arg for a in (*args.args, *args.kwonlyargs)}))
        self.generic_visit(node)
        self._scopes.pop()

    def _set(self, callee: str, option: str, value: ast.expr | None) -> None:
        if self._scopes and isinstance(value, ast.Name):
            scope, params = self._scopes[-1]
            if value.id in params and scope in self.options:
                self.forwarded.setdefault((callee, option), set()).add((scope, value.id))
                return
        self.direct[callee].add(option)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in self.options:
            callee = node.func.id
            first, options = self.options[callee]
            for kw in node.keywords:
                if kw.arg is not None:
                    self._set(callee, kw.arg, kw.value)
                else:
                    for sub in ast.walk(kw.value):
                        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                            self.direct[callee].add(sub.value)
            for (name, kind), arg in zip(options, node.args[first:]):
                if isinstance(arg, ast.Starred):
                    break
                if kind is _POSITIONAL:
                    self._set(callee, name, arg)
        self.generic_visit(node)


def caller_census(options: dict[str, tuple[int, list[tuple[str, object]]]]) -> dict[str, set[str]]:
    """Surface -> every option some call under ``CALLER_PLACES`` sets."""
    walker = _Walker(options)
    for place in CALLER_PLACES:
        for path in sorted((REPO / place).rglob("*.py")):
            walker.visit(ast.parse(path.read_text()))
    seen = walker.direct
    changed = True
    while changed:  # forwarding chains resolve to a fixed point
        changed = False
        for (callee, option), sources in walker.forwarded.items():
            if option not in seen[callee] and any(o in seen[s] for s, o in sources):
                seen[callee].add(option)
                changed = True
    return seen


def orphans(options: dict[str, tuple[int, list[tuple[str, object]]]]) -> set[str]:
    """``"surface.option"`` for every option no non-test call sets."""
    seen = caller_census(options)
    return {
        f"{callee}.{name}"
        for callee, (_, opts) in options.items()
        for name, _ in opts
        if name not in seen[callee]
    }
