"""The solver's surface: every option it takes has a caller outside the tests."""

import ast
import dataclasses
import inspect
import pathlib

from repro.minlp import (
    BnBOptions,
    BranchAndBound,
    solve,
    solve_minlp_nlpbb,
    solve_minlp_oa,
    solve_nlp,
)

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Where a non-test caller can live.
CALLER_PLACES = ("src", "benchmarks", "examples")

#: The entry points whose keywords the census covers, by the name they are
#: imported and called under (a method call ``x.solve(...)`` is some other
#: ``solve``).  The first parameter (the problem) is not an option.
ENTRY_POINTS = {
    f.__name__: f
    for f in (solve, solve_minlp_oa, solve_minlp_nlpbb, solve_nlp, BranchAndBound)
}


def _options() -> dict[str, tuple[int, list[tuple[str, object]]]]:
    """Callee -> (the positional slot its options start at, its options as
    ``(name, kind)`` in slot order)."""
    out = {
        name: (1, [
            (p.name, p.kind)
            for p in list(inspect.signature(entry).parameters.values())[1:]
        ])
        for name, entry in ENTRY_POINTS.items()
    }
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    out["BnBOptions"] = (0, [(f.name, positional) for f in dataclasses.fields(BnBOptions)])
    return out


def _passed(call: ast.Call, first: int, options: list[tuple[str, object]]) -> set[str]:
    """The options ``call`` sets: by keyword, in their positional slot, or
    named by a string literal inside a ``**`` splat."""
    passed = set()
    for kw in call.keywords:
        if kw.arg is not None:
            passed.add(kw.arg)
        else:
            passed |= {
                node.value for node in ast.walk(kw.value)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            }
    for (name, kind), arg in zip(options, call.args[first:]):
        if isinstance(arg, ast.Starred):
            break
        if kind is inspect.Parameter.POSITIONAL_OR_KEYWORD:
            passed.add(name)
    return passed


def _caller_census() -> dict[str, set[str]]:
    """Callee -> every option some call under ``CALLER_PLACES`` sets."""
    options = _options()
    seen = {name: set() for name in options}
    for place in CALLER_PLACES:
        for path in sorted((REPO / place).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callee = node.func.id
                    if callee in options:
                        seen[callee] |= _passed(node, *options[callee])
    return seen


def test_every_solver_option_has_a_non_test_caller():
    """A keyword of ``minlp.solve``, ``solve_minlp_oa``, ``solve_minlp_nlpbb``,
    ``solve_nlp`` or ``BranchAndBound``, or a ``BnBOptions`` field, stays only
    while ``src/``, ``benchmarks/`` or ``examples/`` passes it.  Adding an
    option means adding its caller."""
    seen = _caller_census()
    orphans = {
        f"{callee}.{name}"
        for callee, (_, options) in _options().items()
        for name, _ in options
        if name not in seen[callee]
    }
    assert not orphans, f"options with no non-test caller: {sorted(orphans)}"
