"""``hslb dynlb`` prints the experiment's report, not a copy of it."""

import json

from repro.cli import main
from repro.experiments.dynlb_experiments import run_dynlb_comparison

ARGV = ["--seed", "5", "dynlb", "--nodes", "64", "--steps", "16", "--interval", "4"]


def _reference():
    return run_dynlb_comparison(
        total_nodes=64, steps=16, interval=4, drift_rate=0.6, seed=5
    )


def test_table_is_the_experiments_table(capsys):
    """One scenario, two surfaces, one table — every cell, ``full refits``
    included (the column the CLI's own copy used to count differently)."""
    assert main(ARGV) == 0
    out = capsys.readouterr().out
    assert out.rstrip("\n") == _reference().render()
    assert "full refits" in out


def test_json_report_is_the_experiments_to_dict(capsys):
    assert main(ARGV + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    reference = _reference().to_dict()
    assert doc["vs_static_pct"] == reference["vs_static_pct"]
    assert doc["strategies"] == reference["strategies"]
    for counts in doc["strategies"].values():
        assert {"refits_scale", "refits_full"} <= set(counts)


def test_comparison_without_static_renders_a_dash(capsys):
    """``--strategies`` may leave ``static`` out: no baseline, no percentages."""
    argv = ARGV + ["--strategies", "sweep"]
    assert main(argv) == 0
    row = next(
        line for line in capsys.readouterr().out.splitlines()
        if line.split()[:1] == ["sweep"]
    )
    assert row.split()[2] == "-"
    assert main(argv + ["--json"]) == 0
    assert "vs_static_pct" not in json.loads(capsys.readouterr().out)
