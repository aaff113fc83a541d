"""A serving process never loads the MINLP stack's scipy.

scipy's three compiled routines, even loaded alone
(``repro.util.scipy_ext``), add ~12 MiB and ~30 ms to a process (the
``scipy.optimize`` / ``scipy.linalg`` packages around them ~38 MiB, ~0.4 s
and ~300 modules more), and no served request reaches a line that calls
them: every objective is answered by ``core.greedy``.  The check runs in a fresh
interpreter: pytest's own process imported scipy long ago, which would mask
exactly what is tested.
(The rule that keeps it so — no module-level ``scipy`` import under
``src/repro`` — is ``tests/cli/test_parser.py``.)
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parents[2]

_PRELUDE = """
import io, json, sys
import repro, repro.core, repro.service, repro.cli
from repro.service import AsyncServingTier, TierConfig, run_requests
from tests.service.conftest import make_request

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = {}
"""


def _probe(body: str) -> dict:
    """Run ``body`` after the prelude in a fresh interpreter; it fills ``out``."""
    script = _PRELUDE + textwrap.dedent(body) + "\nprint(json.dumps(out))\n"
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, cwd=REPO,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_serving_every_objective_never_loads_scipy():
    """Imports, then min-max, max-min and min-sum answers through a tier and
    through ``hslb serve``: no ``scipy*`` module at any point."""
    out = _probe(
        """
        out["after_import"] = scipy_modules()
        requests = [
            make_request(nodes, objective=objective)
            for objective in ("min-max", "max-min", "min-sum")
            for nodes in (48, 64)
        ]
        tier = AsyncServingTier(TierConfig(shards=2))
        out["tier"] = sorted(
            {(r.status, r.iterations) for r in run_requests(tier, requests)}
        )

        lines = "".join(json.dumps(r.to_dict()) + "\\n" for r in requests)
        sys.stdin, real_stdout = io.StringIO(lines), sys.stdout
        sys.stdout = served = io.StringIO()
        try:
            out["serve_exit"] = repro.cli.main(["--quiet", "serve"])
        finally:
            sys.stdout = real_stdout
        out["serve"] = sorted(
            {json.loads(line)["status"] for line in served.getvalue().splitlines()}
        )
        out["after_serving"] = scipy_modules()
        """
    )
    assert out["after_import"] == []
    assert out["tier"] == [["optimal", 0]]
    assert out["serve_exit"] == 0 and out["serve"] == ["optimal"]
    assert out["after_serving"] == []
