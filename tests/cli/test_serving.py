"""``hslb serve`` / ``hslb batch`` / ``hslb chaos``."""

import json

from repro.cli import main
from repro.service.loadgen import TraceSpec, request_pool


def test_chaos_soak_mix_is_the_load_generators_pool(capsys):
    """The soak cycles ``loadgen.request_pool`` (12 distinct requests), so
    the 13th and 14th repeat the first two and are served from the cache;
    nothing is lost under the default fault mix."""
    assert main(["chaos", "--requests", "14", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    pool = [request.fingerprint() for request in request_pool(TraceSpec())]
    assert len(set(pool)) == 12
    assert [r["fingerprint"] for r in report["responses"]] == pool + pool[:2]
    assert report["answered"] == 14
    assert report["sources"] == {"exact": 12, "cache": 2}


def test_batch_rejects_a_nonpositive_admission_limit_cleanly(tmp_path, capsys):
    path = tmp_path / "requests.json"
    path.write_text("[]")
    assert main(["batch", str(path), "--max-pending", "0"]) == 2
    assert "max_pending" in capsys.readouterr().err
