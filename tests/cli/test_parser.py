"""The parser as a whole: the flag rule, ``--help`` everywhere, a cheap import."""

import argparse
import ast
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Where an invocation can live.  A flag nothing here passes has no caller.
CALLER_PLACES = ("tests", "Makefile", ".github/workflows/ci.yml", "README.md",
                 "DESIGN.md", "docs")


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = (
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return dict(sub.choices)


def _caller_text() -> str:
    files = []
    for place in CALLER_PLACES:
        path = REPO / place
        files.extend(sorted(path.rglob("*")) if path.is_dir() else [path])
    this = pathlib.Path(__file__).resolve()
    return "\n".join(
        f.read_text()
        for f in files
        if f.is_file() and f != this and f.suffix in {"", ".py", ".md", ".yml"}
    )


def test_every_flag_has_a_caller():
    """An option stays only if a test, Make target, CI step or doc passage
    passes it; any one of an action's option strings counts (``export`` is
    called with ``-o``).  Adding a flag means adding its caller."""
    text = _caller_text()
    parsers = {"hslb": build_parser(), **_subcommands()}
    orphans = []
    for name, parser in parsers.items():
        for action in parser._actions:
            options = [o for o in action.option_strings if o not in ("-h", "--help")]
            if options and not any(
                re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", text) for o in options
            ):
                orphans.append(f"{name} {'/'.join(options)}")
    assert not orphans, f"flags nothing passes or documents: {orphans}"


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_help_renders_for_every_subcommand(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert f"hslb {command}" in capsys.readouterr().out


def test_building_the_parser_imports_neither_scipy_nor_the_experiments():
    """Handlers import what they run lazily, so ``hslb --help`` and shell
    completion stay fast; a module-level import in one surface loses that."""
    probe = (
        "import sys, repro.cli as cli; cli.build_parser(); "
        "print([m for m in ('scipy', 'repro.experiments') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_no_module_under_src_imports_scipy_at_module_level():
    """scipy costs a serving process memory and start-up time it never
    uses, so it is loaded inside the functions that call it (the fits,
    SLSQP, HiGHS; ``repro.util.scipy_ext``).  Anything outside a
    function body runs at import time: module and class level, and the
    ``if`` / ``try`` / ``with`` blocks under them."""

    def import_time_statements(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from import_time_statements(getattr(node, field, []))

    offenders = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in import_time_statements(ast.parse(path.read_text()).body):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert not offenders, f"module-level scipy imports: {offenders}"


def test_dispatch_has_no_per_command_branch():
    """``main`` is parse -> ``args.run(args)``: every subcommand binds one."""
    for name, parser in _subcommands().items():
        assert callable(parser.get_default("run")), name
