"""Tests for the ASCII figure renderer."""

import pytest

from repro.util.ascii_plot import ascii_plot


def test_single_series_renders():
    out = ascii_plot({"s": ([1, 2, 3], [10, 5, 2])}, width=20, height=6)
    lines = out.splitlines()
    assert any("o" in line for line in lines)
    assert "legend: o=s" in out
    assert "y: 2 .. 10" in out
    assert "x: 1 .. 3" in out


def test_multiple_series_distinct_markers():
    out = ascii_plot(
        {"a": ([1, 2], [1, 2]), "b": ([1, 2], [2, 1])}, width=20, height=6
    )
    assert "o=a" in out and "x=b" in out
    assert "o" in out and "x" in out


def test_log_axes():
    out = ascii_plot(
        {"s": ([1, 10, 100, 1000], [1000, 100, 10, 1])},
        log_x=True,
        log_y=True,
        width=30,
        height=8,
    )
    assert "(log)" in out
    # Perfect power law renders as a diagonal: marker columns all distinct.
    rows = [line for line in out.splitlines() if line.startswith("|")]
    cols = [r.index("o") for r in rows if "o" in r]
    assert len(set(cols)) == len(cols)


def test_log_axis_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        ascii_plot({"s": ([0, 1], [1, 2])}, log_x=True)


def test_validation():
    with pytest.raises(ValueError, match="no series"):
        ascii_plot({})
    with pytest.raises(ValueError, match="mismatch"):
        ascii_plot({"s": ([1, 2], [1])})
    with pytest.raises(ValueError, match="empty"):
        ascii_plot({"s": ([], [])})
    with pytest.raises(ValueError, match="too small"):
        ascii_plot({"s": ([1], [1])}, width=5, height=2)


def test_constant_series_no_crash():
    out = ascii_plot({"s": ([1, 2, 3], [5, 5, 5])}, width=20, height=6)
    assert "y: 5 .. 5" in out


def test_title_and_labels():
    out = ascii_plot(
        {"s": ([1, 2], [1, 2])},
        title="My Figure",
        x_label="nodes",
        y_label="seconds",
        width=20,
        height=6,
    )
    assert out.splitlines()[0] == "My Figure"
    assert "nodes:" in out and "seconds:" in out
