"""Tests for benchmark/model persistence."""

import json

import pytest

from repro.perf.data import BenchmarkSuite, ComponentBenchmark
from repro.perf.io import (
    load_models,
    load_suite,
    models_from_dict,
    models_to_dict,
    save_models,
    save_suite,
    suite_from_dict,
    suite_to_dict,
)
from repro.perf.model import PerformanceModel


@pytest.fixture
def suite():
    return BenchmarkSuite(
        [
            ComponentBenchmark.from_pairs("atm", [(104, 306.95), (512, 98.81)]),
            ComponentBenchmark.from_pairs("ocn", [(24, 362.7), (240, 76.4)]),
        ]
    )


def test_suite_round_trip(suite, tmp_path):
    path = save_suite(suite, tmp_path / "bench.json")
    loaded = load_suite(path)
    assert set(loaded.components) == {"atm", "ocn"}
    assert len(loaded["atm"]) == 2
    n, y = loaded["atm"].arrays()
    assert list(n) == [104.0, 512.0]
    assert y[0] == pytest.approx(306.95)


def test_suite_dict_format_guard(suite):
    payload = suite_to_dict(suite)
    assert payload["format"] == "hslb-benchmarks-v1"
    with pytest.raises(ValueError, match="expected format"):
        suite_from_dict({"format": "something-else"})
    with pytest.raises(ValueError, match="components"):
        suite_from_dict({"format": "hslb-benchmarks-v1"})


def test_suite_file_is_stable_json(suite, tmp_path):
    path = save_suite(suite, tmp_path / "bench.json")
    payload = json.loads(path.read_text())
    assert payload["components"]["ocn"] == [[24, 362.7], [240, 76.4]]


def test_models_round_trip(tmp_path):
    models = {
        "atm": PerformanceModel(a=27380.0, b=1e-3, c=1.0, d=43.0),
        "ocn": PerformanceModel(a=7550.0, d=45.0),
    }
    path = save_models(models, tmp_path / "models.json")
    loaded = load_models(path)
    assert loaded["atm"] == models["atm"]
    assert loaded["ocn"].time(24) == pytest.approx(models["ocn"].time(24))


def test_models_format_guard():
    with pytest.raises(ValueError, match="expected format"):
        models_from_dict({"format": "nope"})
    with pytest.raises(ValueError, match="models"):
        models_from_dict({"format": "hslb-models-v1"})


def test_loaded_suite_usable_by_pipeline(suite, tmp_path):
    """A persisted campaign can skip the gather step entirely (§III-F)."""
    from repro.perf.fitting import fit_suite

    loaded = load_suite(save_suite(suite, tmp_path / "b.json"))
    fits = fit_suite(loaded)
    assert set(fits) == {"atm", "ocn"}


def test_negative_values_rejected_on_load(tmp_path):
    bad = {
        "format": "hslb-benchmarks-v1",
        "components": {"atm": [[-4, 10.0]]},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_suite(p)
