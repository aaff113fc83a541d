"""``hslb dynlb``: it prints the experiment's report, not a copy of it, and
rejects bad flags with a one-line error."""

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


def test_dynlb_command_table(capsys):
    code = main(
        [
            "--seed", "5",
            "dynlb", "--nodes", "64", "--steps", "16", "--interval", "4",
            "--strategies", "static,diffusion,sweep",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cesm-1deg" in out
    assert "vs static" in out
    for strategy in ("static", "diffusion", "sweep"):
        assert strategy in out


def test_dynlb_json_report(capsys):
    code = main(
        [
            "--seed", "5",
            "dynlb", "--scenario", "fmo", "--fragments", "4", "--nodes", "32",
            "--steps", "12", "--interval", "4",
            "--strategies", "static,sweep", "--json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["strategies"]) == {"static", "sweep"}
    assert doc["strategies"]["sweep"]["steps"] == 12
    assert "vs_static_pct" in doc
    assert doc["vs_static_pct"]["static"] == 0.0


def test_dynlb_crash_run_reports_recovery(capsys):
    code = main(
        [
            "--seed", "5",
            "dynlb", "--nodes", "64", "--steps", "16", "--interval", "4",
            "--strategies", "static,diffusion", "--crash-step", "7",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "crash:" in out
    assert "re-planned on the survivors" in out


def test_dynlb_unknown_strategy_is_a_clean_error(capsys):
    assert main(["dynlb", "--strategies", "static,magic"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_dynlb_determinism_across_runs(capsys):
    argv = [
        "--seed", "9",
        "dynlb", "--nodes", "48", "--steps", "12", "--interval", "4",
        "--strategies", "static,sweep", "--json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_dynlb_rejects_a_zero_interval_cleanly(capsys):
    assert main(["dynlb", "--interval", "0"]) == 2
    assert "interval must be >= 1" in capsys.readouterr().err
