"""``hslb optimize`` / ``hslb export``: flags and files no other test drives."""

import json

import pytest

from repro.cli import main

OPTIMIZE = [
    "--seed", "3",
    "optimize", "--resolution", "1deg", "--nodes", "64",
    "--benchmarks", "16", "32", "64", "256",
]


def _optimize_json(capsys, *extra):
    assert main(OPTIMIZE + ["--json", *extra]) == 0
    return json.loads(capsys.readouterr().out)


def test_tsync_binds_the_ice_land_gap(capsys):
    """Table I's synchronisation tolerance, reachable from the shell: on
    layout 1 the unconstrained optimum leaves ice and land ~14 s apart, so
    a 5 s tolerance must move the allocation and cannot improve the total."""
    free = _optimize_json(capsys)
    synced = _optimize_json(capsys, "--tsync", "5")

    def gap(doc):
        return abs(doc["predicted_times"]["ice"] - doc["predicted_times"]["lnd"])

    assert gap(free) > 5.0
    assert gap(synced) <= 5.0
    assert synced["allocation"] != free["allocation"]
    assert synced["predicted_total"] >= free["predicted_total"] - 1e-9
    # The Tsync rows are nonconvex: the exact layout scan answers, not OA.
    assert synced["solver"]["status"] == "optimal"
    assert synced["solver"]["tier"] == "direct"


def test_tsync_off_layout_one_still_runs_oa(capsys):
    """Only layout 1 has Tsync rows: ``--layout 2 --tsync 5`` is a convex
    model, so OA answers it (and the flag changes nothing)."""
    plain = _optimize_json(capsys, "--layout", "2")
    synced = _optimize_json(capsys, "--layout", "2", "--tsync", "5")
    assert synced["solver"]["tier"] == "oa"
    assert synced["allocation"] == plain["allocation"]


def test_trace_out_round_trips_through_trace_by_id(tmp_path, capsys):
    """``--trace-out`` beside ``--json``: stdout stays one JSON document and
    the dump is what ``hslb trace --id`` renders."""
    dump = tmp_path / "f.jsonl"
    assert main(OPTIMIZE + ["--trace-out", str(dump), "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["nodes"] == 64
    assert "trace written to" in captured.err
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    (root,) = (r for r in records if r["parent_id"] is None)
    assert root["name"] == "cli.optimize"
    assert main(["trace", "--id", root["trace_id"], "--input", str(dump)]) == 0
    out = capsys.readouterr().out
    assert f"trace {root['trace_id']} ({len(records)} spans)" in out
    assert "cli.optimize" in out and "minlp.oa  " in out


@pytest.mark.parametrize("content", [None, "not json {", '{"format": "other"}'])
def test_unreadable_benchmark_file_is_a_clean_error(tmp_path, capsys, content):
    """Missing, not JSON, or not a campaign: exit 2 and one line, no traceback."""
    path = tmp_path / "campaign.json"
    if content is not None:
        path.write_text(content)
    assert main(OPTIMIZE + ["--load-benchmarks", str(path)]) == 2
    assert f"cannot read {path}" in capsys.readouterr().err
