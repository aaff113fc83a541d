"""``hslb serve`` end to end: the inline one-shard tier behind the one
JSONL transport — requests, control lines, malformed input, input order."""

from __future__ import annotations

import io
import json
import sys

from repro.cli import main

from tests.service.conftest import make_request


def _run(lines: list[str], monkeypatch, capsys) -> tuple[list[dict], str]:
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["serve"]) == 0
    captured = capsys.readouterr()
    return [json.loads(line) for line in captured.out.splitlines()], captured.err


def test_serves_requests_and_caches(request64, monkeypatch, capsys):
    line = json.dumps(request64.to_dict())
    replies, err = _run([line, line], monkeypatch, capsys)
    assert "served 2 request(s)" in err
    assert replies[0]["cached"] is False and replies[1]["cached"] is True
    assert replies[0]["allocation"] == replies[1]["allocation"]
    # The stderr summary is the tier view's table.
    assert "allocation service" in err and "hit rate" in err


def test_metrics_command(monkeypatch, capsys):
    replies, err = _run(
        [json.dumps(make_request(64).to_dict()), '{"cmd": "metrics"}'],
        monkeypatch,
        capsys,
    )
    assert "served 1 request(s)" in err  # control lines are not requests
    metrics = replies[1]["metrics"]
    assert metrics["requests"] == 1
    # The tier snapshot is a superset of what the service's own answered.
    for key in (
        "cache_hits", "cache_misses", "hit_rate", "cold_solves", "warm_solves",
        "solve_errors", "timeouts", "overloads", "warm_start_speedup",
        "latency", "resilience",
    ):
        assert key in metrics, key
    assert metrics["worker_mode"] == "inline" and metrics["shards"] == 1


def test_quit_stops_the_loop(request64, monkeypatch, capsys):
    line = json.dumps(request64.to_dict())
    replies, err = _run([line, '{"cmd": "quit"}', line], monkeypatch, capsys)
    assert "served 1 request(s)" in err
    assert len(replies) == 1


def test_malformed_lines_do_not_kill_the_loop(request64, monkeypatch, capsys):
    replies, err = _run(
        [
            "not json at all",
            "[1, 2, 3]",
            '{"cmd": "selfdestruct"}',
            '{"components": {}, "total_nodes": 4}',
            json.dumps(request64.to_dict()),
        ],
        monkeypatch,
        capsys,
    )
    assert "served 2 request(s)" in err  # the bad request and the good one
    assert "bad JSON" in replies[0]["error"]
    assert "JSON object" in replies[1]["error"]
    assert "unknown command" in replies[2]["error"]
    assert "components" in replies[3]["error"]
    assert replies[4]["status"] == "optimal"


def test_blank_lines_are_skipped(request64, monkeypatch, capsys):
    replies, err = _run(
        ["", "   ", json.dumps(request64.to_dict())], monkeypatch, capsys
    )
    assert "served 1 request(s)" in err and len(replies) == 1


def test_answers_come_back_in_input_order(monkeypatch, capsys):
    """Inline solving finishes each request before the next line is read."""
    budgets = (96, 24, 64, 24, 48, 96)
    lines = [
        json.dumps({**make_request(b).to_dict(), "id": i})
        for i, b in enumerate(budgets)
    ]
    replies, _ = _run(lines, monkeypatch, capsys)
    assert [r["id"] for r in replies] == list(range(len(budgets)))
    assert [r["cached"] for r in replies] == [False, False, False, True, False, True]
