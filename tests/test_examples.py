"""Smoke tests: every shipped example must run end to end.

Examples are documentation that executes; these tests keep them honest.
The heavyweight high-resolution example runs with a reduced machine size.
"""

import runpy
import sys

import pytest

EXAMPLES = "examples"


def _run(path: str, argv: list[str], monkeypatch, capsys) -> str:
    monkeypatch.setattr(sys, "argv", [path] + argv)
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = _run(f"{EXAMPLES}/quickstart.py", ["64"], monkeypatch, capsys)
    assert "manual vs HSLB" in out
    assert "improvement:" in out
    assert "MINLP solve:" in out


def test_fmo_fragments(monkeypatch, capsys):
    out = _run(f"{EXAMPLES}/fmo_fragments.py", ["8", "96"], monkeypatch, capsys)
    assert "hslb-min-max" in out
    assert "(H2O)_8" in out  # the homogeneous contrast case runs too


def test_custom_application(monkeypatch, capsys):
    out = _run(f"{EXAMPLES}/custom_application.py", [], monkeypatch, capsys)
    assert "analytics pipeline" in out
    assert "prediction error" in out


def test_solver_tour(monkeypatch, capsys):
    out = _run(f"{EXAMPLES}/solver_tour.py", [], monkeypatch, capsys)
    assert "the solver zoo agrees" in out
    # All four solvers print the same optimum.
    lines = [line for line in out.splitlines() if "T*=" in line]
    assert len(lines) == 4
    values = {line.split("T*=")[1].split()[0] for line in lines}
    assert len(values) == 1


def test_job_size_prediction(monkeypatch, capsys):
    out = _run(f"{EXAMPLES}/job_size_prediction.py", ["0.5"], monkeypatch, capsys)
    assert "cost-efficient choice" in out
    assert "what-if" in out


def test_resilient_service(monkeypatch, capsys):
    out = _run(f"{EXAMPLES}/resilient_service.py", [], monkeypatch, capsys)
    assert "retry recovers" in out
    assert "source=stale" in out and "source=greedy" in out
    assert "breaker open" in out
    assert "all answered: True" in out


@pytest.mark.slow
def test_cesm_high_resolution(monkeypatch, capsys):
    out = _run(f"{EXAMPLES}/cesm_high_resolution.py", ["8192"], monkeypatch, capsys)
    assert "unconstrained ocean" in out
    assert "improvement" in out
