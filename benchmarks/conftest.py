"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables/figures; its rendered
output is both printed (visible with ``pytest -s``) and persisted under
``benchmarks/out/`` so results survive the run.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def host_record() -> dict:
    """Where a baseline was taken: stored as its ``_host`` record (the gate
    skips names it has no rule for), because wall-clock numbers mean nothing
    without it."""
    import numpy
    import scipy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity
        cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


@pytest.fixture
def save_report(report_dir):
    """Persist a rendered experiment table under benchmarks/out/<name>.txt."""

    def _save(name: str, text: str) -> None:
        path = report_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


@pytest.fixture
def save_json(report_dir):
    """Persist a machine-readable baseline as benchmarks/out/BENCH_<name>.json.

    Counterpart of ``save_report``: the text file is for humans, the JSON
    file is the comparison baseline CI and perf-tracking scripts diff
    against run-to-run.
    """

    def _save(name: str, payload: dict) -> pathlib.Path:
        path = report_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"[baseline saved to {path}]")
        return path

    return _save
