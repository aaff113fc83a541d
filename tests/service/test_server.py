"""``hslb serve`` end to end: the inline one-shard tier behind the one
JSONL transport — requests, control lines, malformed input, input order."""

from __future__ import annotations

import copy
import io
import json
import math
import sys

from repro.cli import main
from repro.service import AsyncServingTier
from repro.util.rng import keyed_rng

from tests.service.conftest import make_request


def _run(
    lines: list[str], monkeypatch, capsys, *, end: str = "\n"
) -> tuple[list[dict], str]:
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + end))
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
        "solve_errors", "overloads", "latency", "resilience",
    ):
        assert key in metrics, key
    assert metrics["shards"] == 1


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


# -- fuzz: one typed reply per line, whatever the line holds ------------------

#: What a confused or hostile client puts where a number or a block belongs.
_JUNK = (
    None, True, "two", "", 2.7, -1, 0, -3.5, 1e308, math.nan, math.inf,
    [], [1, 2], {}, {"a": 1}, "min-max", "9" * 40,
)


def _mutated(rng, payload: dict) -> dict:
    """``payload`` with one to three fields junked, dropped or misplaced."""
    payload = copy.deepcopy(payload)
    for _ in range(int(rng.integers(1, 4))):
        name = str(rng.choice(sorted(payload["components"]) or ["x"]))
        block = payload["components"].get(name, {})
        junk = _JUNK[int(rng.integers(len(_JUNK)))]
        where = int(rng.integers(9))
        if where == 0:
            payload["components"] = junk
            return payload  # nothing left to mutate below it
        if where == 1:
            payload["components"][name] = junk
        elif where == 2 and isinstance(block, dict):
            block[str(rng.choice(["a", "b", "c", "d"]))] = junk
        elif where == 3 and isinstance(block, dict):
            block[str(rng.choice(["min_nodes", "max_nodes"]))] = junk
        elif where == 4:
            payload["total_nodes"] = junk
        elif where == 5:
            payload["solver"] = junk
        elif where == 6:
            key = str(rng.choice(
                ["int_tol", "gap_abs", "gap_rel", "node_limit", "time_limit"]
            ))
            payload["solver"] = {key: junk}
        elif where == 7:
            payload[str(rng.choice(["objective", "algorithm", "priority"]))] = junk
        else:
            payload.pop(str(rng.choice(["components", "total_nodes"])), None)
            if "components" not in payload:
                return payload
    return payload


def test_fuzzed_requests_each_get_one_typed_reply(monkeypatch, capsys):
    """240 keyed mutations of valid requests, a valid neighbour after every
    third: one reply per ``id``, no handler death, neighbours still answered.

    Before: a non-mapping block or a non-numeric bound raised ``ValueError``
    / ``AttributeError`` out of ``from_dict``, the line's task died with
    "Task exception was never retrieved" and its ``id`` never got a line.
    """
    rng = keyed_rng(23, "transport-fuzz")
    lines, valid_ids = [], set()
    for case in range(240):
        base = make_request(int(rng.integers(8, 200))).to_dict()
        lines.append(json.dumps({**_mutated(rng, base), "id": case}))
        if case % 3 == 0:
            valid_ids.add(f"ok-{case}")
            lines.append(json.dumps({**base, "id": f"ok-{case}"}))
    # A budget no machine has, on a curve that never saturates (``b = 0``):
    # the heap would tabulate 1e9 entries in this process.  Refused, typed.
    lines.append(json.dumps(
        {"components": {"x": {"a": 100.0}, "y": {"a": 30.0}},
         "total_nodes": 10**9, "id": "huge"}
    ))
    replies, err = _run(lines, monkeypatch, capsys)

    assert f"served {len(lines)} request(s)" in err
    assert "Traceback" not in err and "never retrieved" not in err
    assert "request handler failed" not in err  # every refusal was typed
    assert sorted(map(str, (r["id"] for r in replies))) == sorted(
        map(str, [*range(240), *valid_ids, "huge"])
    )
    (huge,) = [r for r in replies if r["id"] == "huge"]
    assert huge["status"] == "error" and "largest budget" in huge["error"]
    refused = 0
    for reply in replies:
        if "error" in reply:
            refused += 1
            assert reply["status"] == "error" and reply["error"]
        else:
            assert reply["status"] in ("optimal", "infeasible"), reply
        if reply["id"] in valid_ids:
            assert reply["status"] == "optimal"
    # Most mutations break the request; a junk value that happens to be
    # legal where it landed (``b = 0``, ``max_nodes = None``) does not.
    assert 150 <= refused <= 241


def test_a_last_line_without_a_newline_gets_exactly_one_reply(monkeypatch, capsys):
    """EOF in the middle of a line still ends a request: the partial last
    line is answered once, with its ``id``, like every line before it."""
    lines = [
        json.dumps({**make_request(b).to_dict(), "id": f"r{b}"}) for b in (48, 64)
    ]
    replies, err = _run(lines, monkeypatch, capsys, end="")
    assert "served 2 request(s)" in err
    assert sorted(r["id"] for r in replies) == ["r48", "r64"]
    assert all(r["status"] == "optimal" for r in replies)


def test_a_handler_bug_is_answered_and_logged_not_lost(monkeypatch, capsys):
    """The boundary's last resort: any other exception still answers its
    ``id``, and the traceback goes to the log instead of a dead task."""
    async def broken(self, request, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(AsyncServingTier, "submit", broken)
    replies, err = _run(
        [json.dumps({**make_request(64).to_dict(), "id": "a"})], monkeypatch, capsys
    )
    assert replies == [
        {"error": "internal error (RuntimeError: wires crossed)",
         "status": "error", "id": "a"}
    ]
    assert "never retrieved" not in err
    assert "[error] service.frontend: request handler failed" in err
    assert "RuntimeError: wires crossed" in err
