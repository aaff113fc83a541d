"""Tests for the AMPL model exporter."""

from repro.cesm.grids import one_degree
from repro.cesm.layouts import Layout, formulate_layout
from repro.minlp.ampl_export import _sanitize, problem_to_ampl
from repro.minlp.modeling import Model
from repro.minlp.problem import Domain
from repro.perf.model import PerformanceModel


def _toy():
    m = Model("toy")
    t = m.var("T", 0, 1e4)
    n = m.integer_var("n", 1, 100)
    z = m.binary_var("z")
    m.add(t >= 100.0 / n + 2.0, "perf")
    m.add_equals(n + 50 * z, 60, "link")
    m.minimize(t)
    return m.build()


def test_sanitize():
    assert _sanitize("n_atm") == "n_atm"
    assert _sanitize("z[3]") == "z_3_"
    assert _sanitize("2bad") == "v_2bad"


def test_toy_export_structure():
    text = problem_to_ampl(_toy())
    assert "var T >= 0, <= 10000;" in text
    assert "var n integer >= 1, <= 100;" in text
    assert "var z binary;" in text
    assert "minimize objective: T;" in text
    # The modeling layer folds RHS constants into the body, so rows are
    # normalized against 0.
    assert "subject to con_perf:" in text and ">= 0;" in text
    assert "subject to con_link:" in text and "= 0;" in text
    assert "-60" in text  # the folded equality RHS


def test_nonlinear_operators_render():
    m = Model()
    x = m.var("x", 0.1, 10)
    m.add(x * x / (x + 1) <= 100, "quot")
    m.add(x**1.5 <= 50, "pow")
    m.minimize(x)
    text = problem_to_ampl(m.build())
    assert "((x * x) / (x + 1))" in text
    assert "^ 1.5" in text


def test_maximize_and_ranges():
    m = Model()
    x = m.var("x", 0, 5)
    y = m.var("y", 0, 5)
    m.add(Relation := (x + y >= 1), "lo")
    m.maximize(2 * x + y)
    text = problem_to_ampl(m.build())
    assert "maximize objective:" in text
    assert "subject to con_lo:" in text and ">= 0;" in text


def test_sos_suffixes_emitted():
    m = Model()
    zs = m.var_list("z", 3, 0, 1, domain=Domain.BINARY)
    m.add_equals(sum(zs), 1)
    m.sos1(zs, weights=[2.0, 6.0, 14.0], name="spots")
    m.minimize(zs[0])
    text = problem_to_ampl(m.build())
    assert "suffix sosno integer" in text
    assert "let z_0_.sosno := 1;" in text
    assert "let z_2_.ref := 14;" in text


def test_name_collisions_resolved():
    m = Model()
    m.var("a_b", 0, 1)
    m.var("a[b]", 0, 1)  # sanitizes to a_b_ ... distinct from a_b
    m.minimize(0)
    text = problem_to_ampl(m.build())
    # Two distinct var statements.
    assert text.count("var a_b") == 2
    lines = [line for line in text.splitlines() if line.startswith("var ")]
    names = {line.split()[1] for line in lines}
    assert len(names) == 2


def test_layout1_model_exports_fully():
    models = {
        "lnd": PerformanceModel(a=1483.0, d=2.1),
        "ice": PerformanceModel(a=7600.0, d=11.0),
        "atm": PerformanceModel(a=27380.0, d=43.0),
        "ocn": PerformanceModel(a=7550.0, d=45.0),
    }
    problem = formulate_layout(models, 128, one_degree(), layout=Layout.HYBRID)
    text = problem_to_ampl(problem)
    assert "var n_atm integer" in text
    assert "subject to con_makespan_atm_side:" in text
    assert "suffix sosno" in text  # the ocean sweet-spot SOS
    # Every variable of the problem appears.
    for v in problem.variables:
        assert f"var " in text
    assert text.count("subject to") == problem.num_constraints
