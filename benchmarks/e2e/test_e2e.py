"""Self-tests of the end-to-end ledger.

Run explicitly (tier-1 collects only ``tests/``)::

    python -m pytest benchmarks/e2e/test_e2e.py
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

import catalogue  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = run.SPEC
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_decides_the_inputs(workload):
    assert catalogue.input_digest(workload, 7) == catalogue.input_digest(workload, 7)
    assert catalogue.input_digest(workload, 7) != catalogue.input_digest(workload, 8)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reference_digest_is_current(workload):
    reference = json.loads((HERE / "reference.json").read_text())
    assert reference["digests"][workload] == catalogue.input_digest(
        workload, reference["seed"]
    )


def test_names_are_well_formed_and_unique():
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    )
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def traced_runs():
    """A shortest-possible traced pass of each workload (its own child)."""
    return {w: run.spawn(w, 7, 1, 1) for w in run.WORKLOADS}


def test_every_metric_is_emitted_and_nothing_fails(traced_runs):
    layers = set()
    for workload, result in traced_runs.items():
        assert result["failed"] == 0, (workload, result["failures"])
        assert result["attempted"] >= 1
        emitted = set(result["end_to_end"]) | {"setup_s", "peak_rss_mb"}
        assert emitted == END_TO_END, workload
        assert all(v > 0 for v in result["end_to_end"].values()), workload
        assert set(result["per_layer"]) <= PER_LAYER, workload
        layers |= set(result["per_layer"])
    assert layers == PER_LAYER


def test_pipeline_layers_account_for_the_sweep(traced_runs):
    for workload in run.PIPELINES:
        assert traced_runs[workload]["per_layer"]["core.attributed_pct"] >= 90.0


def test_self_times_sum_to_the_root():
    rec = spans.SpanRecorder("t")
    with rec.span("root") as root:
        with rec.span("a"):
            with rec.span("a.1"):
                pass
        with rec.span("b"):
            pass
    selfs = rec.self_times()
    assert sum(selfs) == pytest.approx(root["end"] - root["start"])
    assert all(s >= 0 for s in selfs)


def test_overlapping_children_are_counted_once():
    rec = spans.SpanRecorder("t")
    with rec.span("parent") as parent:
        t0 = parent["start"]
        rec.record("request", t0, t0 + 0.3)  # concurrent requests
        rec.record("request", t0 + 0.2, t0 + 0.5)
    parent["end"] = t0 + 1.0  # the test owns the clock
    assert rec.self_times()[parent["id"]] == pytest.approx(0.5)


def test_percentile_refuses_a_thin_tail():
    values = list(range(500))
    assert spans.percentile(values, 0.5) == pytest.approx(249.5)
    with pytest.raises(ValueError):
        spans.percentile(values, 0.99)  # 5 samples beyond it
    assert spans.percentile(list(range(2000)), 0.99) > 1900


def test_compare_flags_a_breach(tmp_path, capsys):
    def ledger(latency):
        return {"workloads": {"serve_hot": {"failed": 0, "metrics": {
            "latency_p50_ms": {"value": latency},
            "throughput_ops": {"value": 100.0},
        }}}}

    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(ledger(1.00)))
    b.write_text(json.dumps(ledger(1.05)))
    c.write_text(json.dumps(ledger(1.50)))
    assert run.compare(str(a), str(b)) == 0
    assert run.compare(str(a), str(c)) == 1
    assert "BREACH" in capsys.readouterr().out
