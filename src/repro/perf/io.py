"""JSON persistence for benchmark data.

§III-F: "The data gathering step (1) can be avoided altogether if reliable
benchmarks are already available, for example, from previous experiments."
That only works if campaigns survive the session — this module gives
benchmark suites a stable on-disk JSON form so a cluster's timing history
can accumulate across runs (``hslb optimize --save-benchmarks`` /
``--load-benchmarks``).

Format (versioned)::

    {
      "format": "hslb-benchmarks-v1",
      "components": {
        "atm": [[104, 306.95], [512, 98.81], ...],
        ...
      }
    }
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Mapping

from repro.perf.data import BenchmarkSuite, ComponentBenchmark, ScalingObservation

BENCHMARKS_FORMAT = "hslb-benchmarks-v1"


def _observation_row(obs: ScalingObservation) -> list:
    """One JSON row: ``[nodes, seconds]``, plus an annotation object when the
    observation carries non-default failure/retry provenance.  Keeping the
    annotation optional (and the format id unchanged) makes the extension
    forward-compatible: files written before annotations existed still load,
    and old readers that only look at the first two entries still work."""
    row: list = [int(obs.nodes), float(obs.seconds)]
    note: dict = {}
    if obs.retries:
        note["retries"] = int(obs.retries)
    if obs.status != "ok":
        note["status"] = obs.status
    if note:
        row.append(note)
    return row


def suite_to_dict(suite: BenchmarkSuite) -> dict:
    """Serialize a benchmark suite to a plain JSON-ready dict."""
    return {
        "format": BENCHMARKS_FORMAT,
        "components": {
            name: [_observation_row(o) for o in suite[name]] for name in suite
        },
    }


def suite_from_dict(payload: Mapping) -> BenchmarkSuite:
    """Inverse of :func:`suite_to_dict`, with format validation."""
    fmt = payload.get("format")
    if fmt != BENCHMARKS_FORMAT:
        raise ValueError(
            f"expected format {BENCHMARKS_FORMAT!r}, got {fmt!r}"
        )
    components = payload.get("components")
    if not isinstance(components, Mapping):
        raise ValueError("missing 'components' mapping")
    suite = BenchmarkSuite()
    for name, rows in components.items():
        observations = []
        for row in rows:
            if not 2 <= len(row) <= 3:
                raise ValueError(f"{name}: malformed observation row {row!r}")
            nodes, seconds = row[0], row[1]
            ann = row[2] if len(row) == 3 else {}
            if not isinstance(ann, Mapping):
                raise ValueError(f"{name}: malformed annotation {ann!r}")
            observations.append(
                ScalingObservation(
                    int(nodes),
                    float(seconds),
                    retries=int(ann.get("retries", 0)),
                    status=str(ann.get("status", "ok")),
                )
            )
        suite.add(ComponentBenchmark(name, observations))
    return suite


def save_suite(suite: BenchmarkSuite, path: str | pathlib.Path) -> pathlib.Path:
    """Write a suite to ``path`` (pretty-printed JSON)."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(suite_to_dict(suite), indent=2, sort_keys=True) + "\n")
    return path
