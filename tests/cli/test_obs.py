"""``hslb trace`` / ``hslb top`` / ``hslb metrics``."""

from repro.cli import main


def test_trace_by_id_missing_dump_is_a_clean_error(capsys):
    assert main(["trace", "--id", "X", "--input", "/nonexistent/dump.jsonl"]) == 2
    assert "cannot read /nonexistent/dump.jsonl" in capsys.readouterr().err


def test_trace_by_id_rejects_a_dump_that_is_not_jsonl(tmp_path, capsys):
    path = tmp_path / "dump.jsonl"
    path.write_text("# TYPE tier_requests_total counter\n")
    assert main(["trace", "--id", "X", "--input", str(path)]) == 2
    assert f"cannot read {path}" in capsys.readouterr().err
