"""``hslb serve`` / ``hslb batch`` / ``hslb chaos``."""

import json
from collections import Counter
from dataclasses import replace

from repro.cli import main
from repro.service.loadgen import TraceSpec, request_pool


def test_chaos_soak_mix_is_the_load_generators_pool(capsys):
    """The soak cycles ``loadgen.request_pool`` (12 distinct requests) with
    every other entry made min-sum — the half a ``--workers N`` tier ships to
    its worker processes — so the 13th and 14th repeat the first two and are
    served from the cache; nothing is lost under the default fault mix."""
    assert main(["chaos", "--requests", "14", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    pool = [
        replace(request, objective="min-sum") if index % 2 else request
        for index, request in enumerate(request_pool(TraceSpec()))
    ]
    assert Counter(r.objective for r in pool) == {"min-max": 6, "min-sum": 6}
    pool = [request.fingerprint() for request in pool]
    assert len(set(pool)) == 12
    assert [r["fingerprint"] for r in report["responses"]] == pool + pool[:2]
    assert report["answered"] == 14
    assert report["sources"] == {"exact": 12, "cache": 2}
    # The min-sum half built MINLPs; the heap answered the rest.
    assert [r["iterations"] > 0 for r in report["responses"][:12]] == [False, True] * 6


def test_batch_rejects_a_nonpositive_admission_limit_cleanly(tmp_path, capsys):
    path = tmp_path / "requests.json"
    path.write_text("[]")
    assert main(["batch", str(path), "--max-pending", "0"]) == 2
    assert "max_pending" in capsys.readouterr().err
