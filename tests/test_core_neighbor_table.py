"""Unit tests for the soft-state neighbor table."""

import pytest

from repro.core.neighbor_table import NeighborTable, expected_responders


def test_observe_and_lookup():
    table = NeighborTable(ttl_s=60.0)
    table.observe(5, 0.4, now=10.0, buffer_slots=3)
    assert 5 in table
    assert len(table) == 1
    entry = table.entries(now=10.0)[0]
    assert entry.xi == 0.4
    assert entry.buffer_slots == 3


def test_observe_refreshes_entry():
    table = NeighborTable(ttl_s=60.0)
    table.observe(5, 0.4, now=10.0)
    table.observe(5, 0.7, now=20.0)
    assert len(table) == 1
    assert table.entries(now=20.0)[0].xi == 0.7


def test_expiry_drops_stale_entries():
    table = NeighborTable(ttl_s=60.0)
    table.observe(1, 0.5, now=0.0)
    table.observe(2, 0.6, now=50.0)
    live = table.entries(now=70.0)
    assert [e.node_id for e in live] == [2]
    assert 1 not in table


def test_known_xis_for_eq13():
    table = NeighborTable(ttl_s=60.0)
    table.observe(1, 0.2, now=0.0)
    table.observe(2, 0.8, now=0.0)
    assert sorted(e.xi for e in table.entries(now=1.0)) == [0.2, 0.8]


def test_expected_responders_counts_higher_xi_only():
    table = NeighborTable(ttl_s=60.0)
    table.observe(1, 0.2, now=0.0)
    table.observe(2, 0.6, now=0.0)
    table.observe(3, 0.9, now=0.0, is_sink=True)
    live = table.entries(now=1.0)
    assert expected_responders(live, own_xi=0.5) == 2
    assert expected_responders(live, own_xi=0.95) == 0


def test_capacity_evicts_oldest():
    table = NeighborTable(ttl_s=1e9, max_entries=2)
    table.observe(1, 0.1, now=1.0)
    table.observe(2, 0.2, now=2.0)
    table.observe(3, 0.3, now=3.0)
    assert len(table) == 2
    assert 1 not in table and 2 in table and 3 in table


def test_rejects_invalid_construction_and_xi():
    with pytest.raises(ValueError):
        NeighborTable(ttl_s=0.0)
    with pytest.raises(ValueError):
        NeighborTable(ttl_s=10.0, max_entries=0)
    table = NeighborTable(ttl_s=10.0)
    with pytest.raises(ValueError):
        table.observe(1, 1.5, now=0.0)
