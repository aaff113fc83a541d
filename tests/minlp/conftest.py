"""Fixtures shared by the solver tests."""

import pytest

from repro.minlp import linprog

#: Size thresholds that route every node LP to one engine.
_FORCED = {"simplex": 10**9, "highs": -1}


@pytest.fixture
def force_lp_engine(monkeypatch):
    """``force("simplex" | "highs" | "routed")``: pin the node-LP engine.

    Engines are chosen by LP size alone, so forcing one means moving the two
    size constants; ``"routed"`` restores the shipped thresholds.
    """
    shipped = (linprog._AUTO_SIMPLEX_MAX_ROWS, linprog._AUTO_SIMPLEX_MAX_COLS)

    def force(engine: str) -> None:
        rows, cols = shipped if engine == "routed" else (_FORCED[engine],) * 2
        monkeypatch.setattr(linprog, "_AUTO_SIMPLEX_MAX_ROWS", rows)
        monkeypatch.setattr(linprog, "_AUTO_SIMPLEX_MAX_COLS", cols)

    return force
