"""Migration cost and event records."""

import pytest

from repro.dynlb.migration import MigrationEvent, migration_cost, nodes_moved


def test_cost_counts_only_positive_growth():
    old = {"a": 10, "b": 20, "c": 5}
    new = {"a": 16, "b": 14, "c": 5}  # 6 nodes move from b to a
    assert nodes_moved(old, new) == 6
    assert migration_cost(None, old, new) == 5.0 + 0.5 * 6
    assert migration_cost(10.0, old, new) == pytest.approx(5.0 + 0.2 * 6)


def test_no_move_costs_nothing():
    alloc = {"a": 10, "b": 20}
    assert nodes_moved(alloc, alloc) == 0
    assert migration_cost(None, alloc, alloc) == 0.0
    assert migration_cost(100.0, alloc, alloc) == 0.0


def test_new_component_counts_as_growth():
    assert migration_cost(2.0, {"a": 10}, {"a": 6, "b": 4}) == pytest.approx(
        1.0 + 0.04 * 4
    )


def test_calibrate_derives_cost_from_a_step_time():
    """Half a step to restart, a fiftieth of one per moved node."""
    old, new = {"a": 10, "b": 20}, {"a": 11, "b": 19}
    assert migration_cost(100.0, old, new) == pytest.approx(50.0 + 2.0)
    assert migration_cost(100.0, old, {"a": 13, "b": 17}) == pytest.approx(
        50.0 + 2.0 * 3
    )


def test_validation():
    with pytest.raises(ValueError):
        migration_cost(0.0, {"a": 1}, {"a": 2})
    with pytest.raises(ValueError):
        MigrationEvent(
            step=0, old={}, new={}, predicted_gain=0.0, cost=0.0,
            reason="whim", outcome="applied",
        )
    with pytest.raises(ValueError):
        MigrationEvent(
            step=0, old={}, new={}, predicted_gain=0.0, cost=0.0,
            reason="interval", outcome="vanished",
        )


def test_event_describe_summarizes_the_move():
    event = MigrationEvent(
        step=7,
        old={"a": 10, "b": 20},
        new={"a": 16, "b": 14},
        predicted_gain=120.0,
        cost=8.0,
        reason="interval",
        outcome="applied",
    )
    assert event.nodes_moved == 6
    text = event.describe()
    assert "step 7" in text
    assert "applied" in text
    assert "6" in text
