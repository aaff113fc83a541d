"""A serving process does not load the MINLP stack's scipy until it needs it.

``import scipy.optimize`` is ~50 MiB and ~0.4 s *per process* — the tier's
parent and every forked worker — and no min-max / max-min request reaches a
line that calls it.  Each check runs in a fresh interpreter: pytest's own
process imported scipy long ago, which would mask exactly what is tested.
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
import asyncio, io, json, sys
import repro, repro.core, repro.service, repro.cli
from repro.service import (
    AsyncServingTier, ResiliencePolicy, ServiceTimeoutError, TierConfig,
    run_requests,
)
from tests.service.conftest import dispatched, make_request

def request(objective, nodes=64):
    return make_request(nodes, objective=objective)

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


def test_direct_objectives_never_load_scipy_and_min_sum_loads_it_once():
    """(i) imports + a min-max and a max-min answer, through an inline tier
    and through ``hslb serve``: no ``scipy*`` module.  (ii) a min-sum request
    in that same process then loads it and is answered by OA."""
    out = _probe(
        """
        out["after_import"] = scipy_modules()
        direct = [request("min-max"), request("max-min")]
        tier = AsyncServingTier(TierConfig(shards=1, worker_mode="inline"))
        out["tier"] = [(r.status, r.iterations) for r in run_requests(tier, direct)]

        lines = "".join(json.dumps(r.to_dict()) + "\\n" for r in direct)
        sys.stdin, real_stdout = io.StringIO(lines), sys.stdout
        sys.stdout = served = io.StringIO()
        try:
            out["serve_exit"] = repro.cli.main(["--quiet", "serve"])
        finally:
            sys.stdout = real_stdout
        out["serve"] = [
            json.loads(line)["status"] for line in served.getvalue().splitlines()
        ]
        out["after_direct"] = scipy_modules()

        tier = AsyncServingTier(TierConfig(shards=1, worker_mode="inline"))
        (answer,) = run_requests(tier, [request("min-sum")])
        out["min_sum"] = (answer.status, answer.source, answer.iterations)
        out["scipy_loaded"] = "scipy.optimize" in scipy_modules()
        """
    )
    assert out["after_import"] == []
    assert out["tier"] == [["optimal", 0], ["optimal", 0]]
    assert out["serve_exit"] == 0 and out["serve"] == ["optimal", "optimal"]
    assert out["after_direct"] == []
    status, source, iterations = out["min_sum"]
    assert (status, source) == ("optimal", "exact") and iterations > 0
    assert out["scipy_loaded"]


def test_a_process_tier_pays_the_import_in_its_worker_inside_the_deadline():
    """(iii) a process-mode tier forked from a scipy-free parent: min-sum is
    answered ``optimal`` by the worker's OA; with a deadline shorter than the
    worker's one-off import the request ends as a typed timeout, or on the
    ladder's greedy rung under a resilience policy — never lost, and the
    parent stays scipy-free throughout."""
    out = _probe(
        """
        async def first_min_sum(deadline, policy):
            config = TierConfig(shards=1, worker_mode="process", resilience=policy)
            async with AsyncServingTier(config) as tier:
                try:
                    r = await tier.submit(request("min-sum"), deadline=deadline)
                    first = (r.status, r.source, r.iterations)
                except ServiceTimeoutError as exc:
                    first = ("time_limit", type(exc).__name__, exc.deadline)
                # The same worker answers the next request: nothing was lost
                # with the first, and scipy is loaded there now.
                r = await tier.submit(request("min-sum", 65), deadline=10.0)
                snap = tier.snapshot()
                return first, (r.status, r.source), snap["timeouts"]

        out["unhurried"] = asyncio.run(first_min_sum(None, None))
        out["typed"] = asyncio.run(first_min_sum(0.05, None))
        out["ladder"] = asyncio.run(first_min_sum(0.05, ResiliencePolicy()))
        out["parent"] = scipy_modules()
        """
    )
    first, second, timeouts = out["unhurried"]
    assert first[:2] == ["optimal", "exact"] and first[2] > 0
    assert (second, timeouts) == (["optimal", "exact"], 0)

    first, second, timeouts = out["typed"]
    assert first == ["time_limit", "ServiceTimeoutError", 0.05]
    assert (second, timeouts) == (["optimal", "exact"], 1)

    first, second, timeouts = out["ladder"]
    assert first == ["feasible", "greedy", 0]
    assert (second, timeouts) == (["optimal", "exact"], 1)
    assert out["parent"] == []


def test_a_process_tier_parent_answers_direct_requests_itself_scipy_free():
    """(iv) a process-mode tier answers min-max / max-min on its own shard
    threads — nothing is dispatched to the forked workers beyond their
    warm-up — and doing so loads no ``scipy*`` module into the parent; the
    min-sum request that follows is the first thing shipped, and the parent
    is still scipy-free after its answer came back."""
    out = _probe(
        """
        async def drive():
            config = TierConfig(shards=2, worker_mode="process")
            async with AsyncServingTier(config) as tier:
                direct = await asyncio.gather(*(
                    tier.submit(request(objective, nodes))
                    for objective in ("min-max", "max-min")
                    for nodes in (48, 64, 96)
                ))
                out["direct"] = sorted({(r.status, r.iterations) for r in direct})
                out["dispatched_after_direct"] = dispatched(tier)
                out["parent_after_direct"] = scipy_modules()
                shipped = await tier.submit(request("min-sum"))
                out["min_sum"] = (shipped.status, shipped.iterations > 0)
                out["dispatched_after_min_sum"] = sorted(dispatched(tier))

        asyncio.run(drive())
        out["parent"] = scipy_modules()
        """
    )
    assert out["direct"] == [["optimal", 0]]
    assert out["dispatched_after_direct"] == [1, 1]
    assert out["parent_after_direct"] == []
    assert out["min_sum"] == ["optimal", True]
    assert out["dispatched_after_min_sum"] == [1, 2]
    assert out["parent"] == []
