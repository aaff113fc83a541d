"""Round-trip of failure/retry annotations in the benchmark JSON format."""

import json

import pytest

from repro.perf.data import BenchmarkSuite, ComponentBenchmark, ScalingObservation
from repro.perf.io import save_suite, suite_from_dict, suite_to_dict


def load_suite(path):
    """Read a suite file as ``hslb optimize --load-benchmarks`` does."""
    return suite_from_dict(json.loads(path.read_text()))


@pytest.fixture
def annotated():
    return BenchmarkSuite(
        [
            ComponentBenchmark(
                "atm",
                [
                    ScalingObservation(104, 306.95),
                    ScalingObservation(512, 98.81, retries=2),
                    ScalingObservation(1024, 310.0, status="straggler"),
                ],
            ),
            ComponentBenchmark(
                "ocn", [ScalingObservation(24, 362.7, retries=1, status="straggler")]
            ),
        ]
    )


def test_annotations_round_trip(annotated, tmp_path):
    loaded = load_suite(save_suite(annotated, tmp_path / "bench.json"))
    obs = {o.nodes: o for o in loaded["atm"]}
    assert obs[104].retries == 0 and obs[104].status == "ok"
    assert obs[512].retries == 2 and obs[512].status == "ok"
    assert obs[1024].status == "straggler"
    [ocn] = list(loaded["ocn"])
    assert ocn.retries == 1 and ocn.status == "straggler"


def test_clean_observations_stay_two_element(annotated):
    """Unannotated rows keep the original compact [nodes, seconds] shape, so
    files written by this version are readable by the previous one."""
    payload = suite_to_dict(annotated)
    assert payload["format"] == "hslb-benchmarks-v1"  # format id unchanged
    rows = payload["components"]["atm"]
    assert rows[0] == [104, 306.95]
    assert rows[1] == [512, 98.81, {"retries": 2}]
    assert rows[2] == [1024, 310.0, {"status": "straggler"}]


def test_old_files_still_load(tmp_path):
    """Forward compatibility: pre-annotation files are plain 2-element rows."""
    old = {
        "format": "hslb-benchmarks-v1",
        "components": {"atm": [[104, 306.95], [512, 98.81]]},
    }
    p = tmp_path / "old.json"
    p.write_text(json.dumps(old))
    loaded = load_suite(p)
    assert [o.retries for o in loaded["atm"]] == [0, 0]
    assert all(o.status == "ok" for o in loaded["atm"])


def test_bad_annotation_rejected(tmp_path):
    bad = {
        "format": "hslb-benchmarks-v1",
        "components": {"atm": [[104, 306.95, {"status": "zombie"}]]},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_suite(p)


def test_observation_validation():
    with pytest.raises(ValueError):
        ScalingObservation(16, 1.0, retries=-1)
    with pytest.raises(ValueError):
        ScalingObservation(16, 1.0, status="zombie")
    assert ScalingObservation(16, 1.0).clean
    assert not ScalingObservation(16, 1.0, status="straggler").clean


def test_pruning_keeps_minimum_points():
    bench = ComponentBenchmark(
        "atm",
        [
            ScalingObservation(16, 1.0, status="straggler"),
            ScalingObservation(32, 2.0, status="straggler"),
            ScalingObservation(64, 3.0),
        ],
    )
    assert sum(not o.clean for o in bench) == 2
    # Dropping both stragglers would leave one point: keep them instead.
    assert len(bench.pruned(min_points=2)) == 3
    richer = ComponentBenchmark(
        "atm",
        [
            ScalingObservation(16, 1.0, status="straggler"),
            ScalingObservation(32, 2.0),
            ScalingObservation(64, 3.0),
        ],
    )
    pruned = richer.pruned(min_points=2)
    assert len(pruned) == 2
    assert all(o.clean for o in pruned)


def test_suite_degenerate_components():
    suite = BenchmarkSuite(
        [
            ComponentBenchmark(
                "good",
                [ScalingObservation(16, 1.0), ScalingObservation(32, 2.0)],
            ),
            ComponentBenchmark("thin", [ScalingObservation(16, 1.0)]),
        ]
    )
    reasons = suite.degenerate_components(min_points=2)
    assert set(reasons) == {"thin"}
    assert "1" in reasons["thin"]
