"""The solver's surface: every option it takes has a caller outside the tests."""

from repro.minlp import (
    BnBOptions,
    BranchAndBound,
    solve_minlp_nlpbb,
    solve_minlp_oa,
    solve_nlp,
)
from tests.census import options_of, orphans

#: The entry points whose keywords the census covers, by the name they are
#: imported and called under (a method call ``x.solve(...)`` is some other
#: ``solve``).  The first parameter (the problem) is not an option.
SURFACES = {
    **{
        f.__name__: options_of(f, skip=1)
        for f in (solve_minlp_oa, solve_minlp_nlpbb, solve_nlp, BranchAndBound)
    },
    "BnBOptions": options_of(BnBOptions),
}


def test_every_solver_option_has_a_non_test_caller():
    """A keyword of ``solve_minlp_oa``, ``solve_minlp_nlpbb``, ``solve_nlp``
    or ``BranchAndBound``, or a ``BnBOptions`` field, stays only
    while ``src/``, ``benchmarks/`` or ``examples/`` passes it.  Adding an
    option means adding its caller."""
    missing = orphans(SURFACES)
    assert not missing, f"options with no non-test caller: {sorted(missing)}"
