"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out
    assert "table3-eighth-32768-freeocn" in out
    assert "predict-job-size" in out


def test_experiment_unknown_name(capsys):
    assert main(["experiment", "table9"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_fmo_command(capsys):
    assert main(["--seed", "1", "fmo", "--fragments", "6", "--nodes", "64"]) == 0
    out = capsys.readouterr().out
    assert "hslb-min-max" in out
    assert "uniform" in out
    assert "HSLB group sizes" in out


def test_fmo_water_variant(capsys):
    assert main(
        ["--seed", "2", "fmo", "--system", "water", "--fragments", "5", "--nodes", "20"]
    ) == 0
    assert "(H2O)_5" in capsys.readouterr().out


def test_optimize_command(capsys):
    code = main(
        [
            "--seed", "3",
            "optimize", "--resolution", "1deg", "--nodes", "64",
            "--benchmarks", "16", "32", "64", "256",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out
    assert "solver: optimal" in out


def test_optimize_compare_manual(capsys):
    code = main(
        [
            "--seed", "3",
            "optimize", "--resolution", "1deg", "--nodes", "64",
            "--benchmarks", "16", "32", "64", "256",
            "--compare-manual",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "manual" in out
    assert "HSLB improvement over manual" in out


def test_optimize_free_ocean_requires_eighth(capsys):
    assert main(["optimize", "--resolution", "1deg", "--nodes", "64", "--free-ocean"]) == 2
    assert "1/8-degree" in capsys.readouterr().err


def test_optimize_layout3(capsys):
    code = main(
        [
            "--seed", "4",
            "optimize", "--resolution", "1deg", "--nodes", "64",
            "--layout", "3",
            "--benchmarks", "16", "32", "64", "256",
        ]
    )
    assert code == 0
    assert "layout 3" in capsys.readouterr().out


def test_experiment_runs_fmo_pipeline(capsys):
    assert main(["experiment", "fmo-pipeline"]) == 0
    assert "predicted makespan" in capsys.readouterr().out


def test_optimize_save_and_load_benchmarks(tmp_path, capsys):
    bench_file = str(tmp_path / "campaign.json")
    args = [
        "--seed", "3",
        "optimize", "--resolution", "1deg", "--nodes", "64",
        "--benchmarks", "16", "32", "64", "256",
    ]
    assert main(args + ["--save-benchmarks", bench_file]) == 0
    first = capsys.readouterr()
    assert "benchmark campaign saved" in first.err
    assert "TOTAL" in first.out
    # Second run reuses the campaign: gather skipped, same fits, same table.
    assert main(args + ["--load-benchmarks", bench_file]) == 0
    second = capsys.readouterr().out
    assert "TOTAL" in second


def test_optimize_auto_campaign(capsys):
    code = main(
        ["--seed", "6", "optimize", "--resolution", "1deg", "--nodes", "128",
         "--auto-campaign"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "planned gather campaign:" in captured.err
    assert "TOTAL" in captured.out


def test_export_ampl_to_stdout(capsys):
    assert main(["--seed", "5", "export", "--nodes", "128"]) == 0
    out = capsys.readouterr().out
    assert "minimize objective:" in out
    assert "var n_atm integer" in out
    assert "suffix sosno" in out


def test_export_ampl_to_file(tmp_path, capsys):
    target = str(tmp_path / "layout1.mod")
    assert main(["--seed", "5", "export", "--nodes", "128", "-o", target]) == 0
    assert "written to" in capsys.readouterr().out
    text = open(target).read()
    assert "subject to" in text


def test_entrypoint_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_optimize_with_fault_flags(capsys):
    code = main(
        [
            "--seed", "3",
            "optimize", "--resolution", "1deg", "--nodes", "64",
            "--benchmarks", "16", "32", "64", "256",
            "--fail-rate", "0.1", "--straggler-rate", "0.05",
            "--crash-component", "ocn",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    out = captured.out
    # The plan is echoed up front so the run is reproducible from the log.
    assert "fault plan: FaultPlan(seed=0, fail=10%, straggler=5%" in captured.err
    assert "crash=ocn@50%" in captured.err
    assert "TOTAL" in out  # the pipeline still completed
    assert "recovery: lost" in out and "'ocn'" in out
    assert "solver: oa" in out or "solver: direct" in out or "solver: greedy" in out


def test_optimize_without_fault_flags_has_no_plan_header(capsys):
    assert main(
        ["--seed", "3", "optimize", "--resolution", "1deg", "--nodes", "64",
         "--benchmarks", "16", "32", "64", "256"]
    ) == 0
    assert "fault plan:" not in capsys.readouterr().out


def test_fmo_with_crash_group(capsys):
    code = main(
        ["--seed", "1", "fmo", "--fragments", "6", "--nodes", "64",
         "--crash-group", "1"]
    )
    assert code == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "fault plan:" in captured.err
    assert "group 1 lost 50% into the run" in out
    # Strategy comparison table lists all three recovery strategies.
    for strategy in ("replan", "dynamic", "none"):
        assert strategy in out
    assert "vs fault-free" in out


def test_fmo_crash_group_out_of_range(capsys):
    code = main(
        ["--seed", "1", "fmo", "--fragments", "6", "--nodes", "64",
         "--crash-group", "9"]
    )
    assert code == 2
    assert "--crash-group must be in" in capsys.readouterr().err


def test_fmo_fault_seed_changes_plan_echo(capsys):
    assert main(
        ["--seed", "1", "fmo", "--fragments", "6", "--nodes", "64",
         "--fail-rate", "0.2", "--fault-seed", "42"]
    ) == 0
    assert "fault plan: FaultPlan(seed=42, fail=20%" in capsys.readouterr().err


def test_fault_rate_out_of_range_is_a_clean_error(capsys):
    code = main(
        ["--seed", "3", "optimize", "--resolution", "1deg", "--nodes", "64",
         "--benchmarks", "16", "32", "64", "--fail-rate", "1.5"]
    )
    assert code == 2
    assert "fail_rate must be in [0, 1)" in capsys.readouterr().err


def test_fmo_crash_fraction_out_of_range_is_a_clean_error(capsys):
    code = main(
        ["--seed", "1", "fmo", "--fragments", "6", "--nodes", "64",
         "--crash-group", "0", "--crash-fraction", "2.0"]
    )
    assert code == 2
    assert "crash_fraction" in capsys.readouterr().err


def test_optimize_json_report(capsys):
    code = main(
        [
            "--seed", "3",
            "optimize", "--resolution", "1deg", "--nodes", "64",
            "--benchmarks", "16", "32", "64", "256",
            "--json",
        ]
    )
    assert code == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == "1deg" and doc["nodes"] == 64
    assert sum(doc["allocation"].values()) > 0
    assert doc["solver"]["status"] == "optimal"
    assert doc["predicted_total"] > 0


def test_optimize_json_matches_table_run(capsys):
    args = [
        "--seed", "3",
        "optimize", "--resolution", "1deg", "--nodes", "64",
        "--benchmarks", "16", "32", "64", "256",
    ]
    assert main(args) == 0
    table = capsys.readouterr().out
    assert main(args + ["--json"]) == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    # Same pipeline underneath: every allocated node count in the JSON
    # report appears in the rendered table.
    for count in doc["allocation"].values():
        assert str(count) in table


def test_fmo_json_report(capsys):
    code = main(
        ["--seed", "1", "fmo", "--fragments", "6", "--nodes", "64", "--json"]
    )
    assert code == 0
    import json

    doc = json.loads(capsys.readouterr().out)
    labels = [row["label"] for row in doc["schedulers"]]
    assert "hslb-min-max" in labels
    assert doc["hslb"]["predicted"] > 0
    assert len(doc["hslb"]["group_sizes"]) >= 1


def test_fmo_json_with_faults_keeps_stdout_pure(capsys):
    code = main(
        ["--seed", "1", "fmo", "--fragments", "6", "--nodes", "64",
         "--fail-rate", "0.2", "--json"]
    )
    assert code == 0
    captured = capsys.readouterr()
    import json

    doc = json.loads(captured.out)  # stdout must be exactly one JSON doc
    assert "fault_plan" in doc
    assert "fault plan:" in captured.err


def _service_request_payload(total_nodes=64):
    return {
        "components": {
            "atm": {"a": 1200.0, "b": 0.5, "c": 1.1, "d": 2.0},
            "ocn": {"a": 800.0, "b": 0.3, "c": 1.2, "d": 1.0},
        },
        "total_nodes": total_nodes,
    }


def test_batch_command(tmp_path, capsys):
    import json

    path = tmp_path / "requests.json"
    path.write_text(
        json.dumps(
            [
                _service_request_payload(64),
                _service_request_payload(64),
                _service_request_payload(96),
            ]
        )
    )
    assert main(["batch", str(path), "--metrics"]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    responses, metrics = lines[:-1], lines[-1]["metrics"]
    assert len(responses) == 3
    assert responses[0]["allocation"] == responses[1]["allocation"]
    assert responses[1]["cached"] is True
    assert metrics["cache_hits"] == 1
    assert metrics["cold_solves"] == 2
    assert metrics["shards"] == 1
    assert json.loads(captured.err)["served"] == 3  # the tier snapshot


def test_batch_refuses_an_oversized_file(tmp_path, capsys):
    import json

    path = tmp_path / "requests.json"
    path.write_text(json.dumps([_service_request_payload(64)] * 3))
    assert main(["batch", str(path), "--max-pending", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # refused whole: nothing was solved
    assert "admission queue full" in captured.err


def test_chaos_soak_honours_its_flags(capsys):
    """``hslb chaos`` with explicit rates, seed and retries: every injected
    fault is counted, none is lost."""
    import json

    argv = [
        "chaos", "--requests", "24", "--json",
        "--retries", "4", "--chaos-seed", "3", "--chaos-immune-after", "3",
        "--chaos-crash-rate", "0.3", "--chaos-corrupt-rate", "0.2",
    ]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["answered"] == report["requests"] == 24
    assert set(report["sources"]) <= {"exact", "cache"}
    metrics = report["metrics"]
    assert metrics["shards"] == 1
    resilience = metrics["resilience"]
    assert resilience["worker_crashes"] > 0 and resilience["corruptions"] > 0
    from repro.faults import ChaosPlan
    from tests.service.conftest import expected_faults

    plan = ChaosPlan(seed=3, crash_rate=0.3, corrupt_rate=0.2, immune_after=3)
    responses = report["responses"]
    dealt = expected_faults(plan, (r["fingerprint"] for r in responses), 4)
    assert resilience["worker_crashes"] == dealt["crash"]
    assert resilience["corruptions"] == dealt["corrupt"]
    # --retries is honoured: a request hit three times still lands exactly.
    assert resilience["retries"] == (
        resilience["worker_crashes"] + resilience["corruptions"]
    )


def test_batch_missing_file_is_a_clean_error(capsys):
    assert main(["batch", "/nonexistent/requests.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_batch_bad_request_is_a_clean_error(tmp_path, capsys):
    import json

    path = tmp_path / "requests.json"
    path.write_text(json.dumps([{"total_nodes": 8}]))
    assert main(["batch", str(path)]) == 2
    assert "components" in capsys.readouterr().err


def test_bad_chaos_rate_is_a_clean_error(capsys):
    assert main(["chaos", "--chaos-crash-rate", "1.5"]) == 2
    assert "crash_rate" in capsys.readouterr().err
    assert main(["serve", "--chaos-hang-rate", "-0.1"]) == 2
    assert "hang_rate" in capsys.readouterr().err


def test_serve_command(monkeypatch, capsys):
    import io
    import json
    import sys as _sys

    payload = json.dumps(_service_request_payload(64))
    monkeypatch.setattr(
        _sys, "stdin", io.StringIO(payload + "\n" + payload + "\n")
    )
    assert main(["serve"]) == 0
    captured = capsys.readouterr()
    replies = [json.loads(line) for line in captured.out.splitlines()]
    assert replies[0]["cached"] is False and replies[1]["cached"] is True
    assert "served 2 request(s)" in captured.err


def test_serve_async_command(monkeypatch, capsys):
    import io
    import json
    import sys as _sys

    first = {**_service_request_payload(64), "id": "r1"}
    second = {**_service_request_payload(64), "id": "r2"}
    monkeypatch.setattr(
        _sys,
        "stdin",
        io.StringIO(json.dumps(first) + "\n" + json.dumps(second) + "\n"),
    )
    assert main(["serve", "--async", "--shards", "2"]) == 0
    captured = capsys.readouterr()
    replies = [json.loads(line) for line in captured.out.splitlines()]
    by_id = {r["id"]: r for r in replies}
    assert set(by_id) == {"r1", "r2"}
    assert by_id["r1"]["allocation"] == by_id["r2"]["allocation"]
    assert by_id["r1"]["shard"] == by_id["r2"]["shard"]
    assert "served 2 request(s)" in captured.err
    snapshot = json.loads(captured.err[captured.err.index("{"):])
    assert snapshot["shards"] == 2
    assert snapshot["served"] == 2


def test_serve_async_honours_retries_and_chaos(monkeypatch, capsys):
    """Resilience and chaos flags reach the async tier, every objective."""
    import io
    import json
    import sys as _sys

    lines = [
        json.dumps({
            **_service_request_payload(nodes), "objective": objective,
            "id": f"{objective}-{nodes}",
        })
        for objective in ("min-max", "max-min", "min-sum")
        for nodes in (48, 96)
    ]
    monkeypatch.setattr(_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(
        [
            "serve", "--async", "--shards", "1",
            "--resilient", "--retries", "2",
            "--chaos-crash-rate", "0.9", "--chaos-immune-after", "1",
        ]
    ) == 0
    captured = capsys.readouterr()
    replies = [json.loads(line) for line in captured.out.splitlines()]
    assert len(replies) == 6
    assert all(r["source"] == "exact" for r in replies)
    snapshot = json.loads(captured.err[captured.err.index("{"):])
    resilience = snapshot["resilience"]
    assert resilience["worker_crashes"] >= 1
    assert resilience["retries"] == resilience["worker_crashes"]


def test_serve_async_rejects_bad_shard_count(capsys):
    assert main(["serve", "--async", "--shards", "0"]) == 2
    assert "shard" in capsys.readouterr().err


def _trace_dump(tmp_path):
    """A two-request JSONL trace dump; returns (path, first trace_id)."""
    from repro.obs.trace import get_tracer, span

    tracer = get_tracer()
    tracer.reset()
    tracer.enable()
    try:
        with span("tier.submit"):
            with span("shard.solve"):
                pass
        with span("other.request"):
            pass
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        trace_id = tracer.roots[0].trace_id
    finally:
        tracer.disable()
        tracer.reset()
    return path, trace_id


def test_trace_by_id_renders_one_tree(tmp_path, capsys):
    path, trace_id = _trace_dump(tmp_path)
    assert main(["trace", "--id", trace_id, "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"trace {trace_id} (2 spans)" in out
    assert "tier.submit" in out and "shard.solve" in out
    assert "other.request" not in out  # foreign trees are filtered out


def test_trace_by_id_shows_what_the_lp_polish_snapped(tmp_path, capsys, tracer):
    from repro.minlp import Model, solve_minlp_oa

    m = Model("tiny")
    t = m.var("t", lb=0.0)
    n = [m.integer_var(f"n{i}", 1, 8) for i in range(2)]
    m.add(n[0] + n[1] <= 8)
    for i, a in enumerate((40.0, 90.0)):
        m.add(t >= a / n[i] + 0.5 * n[i])
    m.minimize(t)
    sol = solve_minlp_oa(m.build())
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(path))
    trace_id = tracer.roots[0].trace_id
    assert main(["trace", "--id", trace_id, "--input", str(path)]) == 0
    line = next(
        ln for ln in capsys.readouterr().out.splitlines()
        if ln.startswith("minlp.oa  ") and "polish_snapped=" in ln
    )
    assert sol.stats.lp_solves > 0 and "root_nlp_ms=" in line
    assert "lp_simplex" not in line and "lp_highs" not in line  # one engine


def test_trace_by_id_requires_input(capsys):
    assert main(["trace", "--id", "abc"]) == 2
    assert "--input" in capsys.readouterr().err


def test_trace_by_unknown_id_is_a_clean_error(tmp_path, capsys):
    path, _ = _trace_dump(tmp_path)
    assert main(["trace", "--id", "no-such", "--input", str(path)]) == 1
    assert "no spans" in capsys.readouterr().err


def test_top_paints_from_a_file(tmp_path, capsys):
    exposition = tmp_path / "metrics.txt"
    exposition.write_text(
        "# TYPE tier_requests_total counter\ntier_requests_total 5\n"
    )
    code = main(["top", "--input", str(exposition), "--iterations", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "hslb top" in out
    assert "tier_requests_total" in out


def test_top_requires_a_source(capsys):
    assert main(["top"]) == 2
    assert "--url or --input" in capsys.readouterr().err


def test_top_rejects_non_prometheus_input_cleanly(tmp_path, capsys):
    """Feeding a trace JSONL (or any non-exposition file) is user error:
    one line on stderr and exit 2, never a traceback."""
    path, _ = _trace_dump(tmp_path)
    assert main(["top", "--input", str(path), "--iterations", "1"]) == 2
    assert "not Prometheus exposition text" in capsys.readouterr().err
