"""``hslb trace`` / ``hslb top`` / ``hslb metrics``."""

from repro.cli import main
from repro.obs.export import parse_prometheus
from repro.obs.metrics import REGISTRY


def test_trace_by_id_missing_dump_is_a_clean_error(capsys):
    assert main(["trace", "--id", "X", "--input", "/nonexistent/dump.jsonl"]) == 2
    assert "cannot read /nonexistent/dump.jsonl" in capsys.readouterr().err


def test_trace_by_id_rejects_a_dump_that_is_not_jsonl(tmp_path, capsys):
    path = tmp_path / "dump.jsonl"
    path.write_text("# TYPE tier_requests_total counter\n")
    assert main(["trace", "--id", "X", "--input", str(path)]) == 2
    assert f"cannot read {path}" in capsys.readouterr().err


def _metrics_of_optimize(capsys) -> str:
    """``hslb metrics optimize ...``: its stdout, after checking that the
    optimize report went to stderr.  The registry is the process's, so the
    prediction-error gauge is cleared first: earlier tests book layouts of
    their own under the same names."""
    gauge = REGISTRY.get("hslb_prediction_error")
    if gauge is not None:
        gauge.reset()
    assert main(["metrics", "optimize", "--resolution", "1deg", "--nodes", "2048"]) == 0
    captured = capsys.readouterr()
    assert "1deg @ 2048 nodes" in captured.err
    return captured.out


def test_metrics_of_a_command_prints_only_exposition_on_stdout(capsys):
    """The sub-run's report goes to stderr, so the output parses as
    Prometheus text and carries the executed plan's prediction error."""
    samples = parse_prometheus(_metrics_of_optimize(capsys))
    errors = {dict(key)["component"] for key in samples["hslb_prediction_error"]}
    assert {"atm", "ice", "lnd", "ocn", "total"} <= errors


def test_top_shows_prediction_error_of_a_metrics_dump(tmp_path, capsys):
    """``hslb metrics optimize ... > m.txt && hslb top --input m.txt``: the
    prediction-error panel lists each component, the makespan last."""
    dump = tmp_path / "m.txt"
    dump.write_text(_metrics_of_optimize(capsys))
    assert main(["top", "--input", str(dump), "--iterations", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    panel = lines.index("Prediction error |predicted - actual| / actual")
    rows = [line.split() for line in lines[panel + 1:lines.index("Counters & gauges")]]
    assert [row[:2] for row in rows] == [
        ["hybrid", "atm"], ["hybrid", "ice"], ["hybrid", "lnd"], ["hybrid", "ocn"],
        ["hybrid", "total"],
    ]
    assert all(row[2].endswith("%") for row in rows)
