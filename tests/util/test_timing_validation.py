import pytest

from repro.util.timing import Timer
from repro.util.validation import (
    as_sorted_unique,
    check_finite,
    check_in_range,
    check_integerish,
    check_positive,
)


def test_timer_context_manager():
    with Timer() as t:
        pass
    assert t.elapsed >= 0.0
    assert not t.running


def test_timer_accumulates_across_phases():
    t = Timer()
    t.start()
    first = t.stop()
    t.start()
    running = t.peek()  # reads the clock without stopping it
    assert t.running and running >= first
    second = t.stop()
    assert second >= running and t.peek() == second


def test_timer_stop_without_start():
    with pytest.raises(RuntimeError):
        Timer().stop()


def test_check_finite():
    assert check_finite("x", 3.0) == 3.0
    with pytest.raises(ValueError):
        check_finite("x", float("nan"))
    with pytest.raises(ValueError):
        check_finite("x", float("inf"))


def test_check_positive_strict_and_nonstrict():
    assert check_positive("x", 1e-9) == 1e-9
    with pytest.raises(ValueError):
        check_positive("x", 0.0)
    assert check_positive("x", 0.0, strict=False) == 0.0
    with pytest.raises(ValueError):
        check_positive("x", -1.0, strict=False)


def test_check_in_range():
    assert check_in_range("x", 5, 0, 10) == 5.0
    with pytest.raises(ValueError):
        check_in_range("x", 11, 0, 10)


def test_check_integerish():
    assert check_integerish("n", 4.0000001, tol=1e-5) == 4
    with pytest.raises(ValueError):
        check_integerish("n", 4.01)


def test_as_sorted_unique():
    out = as_sorted_unique([3, 1, 2, 2, 3])
    assert list(out) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        as_sorted_unique([])
