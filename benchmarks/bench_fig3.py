"""Figure 3 benchmark: 1/8-degree human vs HSLB-predicted vs HSLB-actual."""

from repro.experiments.fig3 import run_fig3


def test_fig3_eighth_degree_summary(benchmark, save_report):
    result = benchmark.pedantic(run_fig3, rounds=1, iterations=1)
    save_report("fig3", result.render())
    series = result.series()

    # Constrained 8192: HSLB beats the human guess (paper: ~8%).
    assert series["actual"]["eighth-8192"] < series["human"]["eighth-8192"]
    # Constrained 32768: modest gain (paper: 1645 -> 1612).
    assert (
        series["actual"]["eighth-32768"]
        < series["human"]["eighth-32768"] * 1.02
    )
    # Unconstrained 32768: the big one (paper: 1645 -> 1256, ~24%).
    gain = 1.0 - (
        series["actual"]["eighth-32768-freeocn"] / series["human"]["eighth-32768"]
    )
    assert gain > 0.10
    # Predictions track reality within ~12% everywhere (paper's worst case
    # is the unconstrained-ocean fit miss).
    for key, actual in series["actual"].items():
        assert abs(series["predicted"][key] - actual) / actual < 0.15, key
