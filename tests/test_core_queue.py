"""Unit + property tests for the FTD-sorted queue (Sec. 3.1.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.message import DataMessage, MessageCopy
from repro.core.queue import FtdQueue


def msg(mid, origin=0, t=0.0):
    return DataMessage(message_id=mid, origin=origin, created_at=t)


def copy(mid, ftd=0.0, hops=0):
    return MessageCopy(msg(mid), ftd=ftd, hops=hops)


class TestOrdering:
    def test_head_is_smallest_ftd(self):
        q = FtdQueue(10)
        q.insert(copy(1, ftd=0.5))
        q.insert(copy(2, ftd=0.1))
        q.insert(copy(3, ftd=0.3))
        assert q.peek().message_id == 2

    def test_pop_order_ascending_ftd(self):
        q = FtdQueue(10)
        for mid, f in ((1, 0.8), (2, 0.2), (3, 0.5)):
            q.insert(copy(mid, ftd=f))
        assert [q.pop().message_id for _ in range(3)] == [2, 3, 1]

    def test_fifo_among_equal_ftd(self):
        q = FtdQueue(10)
        for mid in (7, 8, 9):
            q.insert(copy(mid, ftd=0.0))
        assert [q.pop().message_id for _ in range(3)] == [7, 8, 9]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FtdQueue(4).pop()


class TestDropRules:
    def test_over_threshold_copy_rejected_on_insert(self):
        q = FtdQueue(10, drop_threshold=0.9)
        assert not q.insert(copy(1, ftd=0.95))
        assert len(q) == 0
        assert q.stats.drops_threshold == 1

    def test_overflow_drops_largest_ftd(self):
        q = FtdQueue(2)
        q.insert(copy(1, ftd=0.5))
        q.insert(copy(2, ftd=0.1))
        q.insert(copy(3, ftd=0.3))  # displaces message 1 (ftd 0.5)
        assert len(q) == 2
        assert 1 not in q
        assert q.stats.drops_overflow == 1

    def test_overflow_may_drop_incoming_copy(self):
        q = FtdQueue(2)
        q.insert(copy(1, ftd=0.1))
        q.insert(copy(2, ftd=0.2))
        kept = q.insert(copy(3, ftd=0.8))
        assert not kept
        assert 3 not in q

    def test_reinsert_past_threshold_drops(self):
        q = FtdQueue(10, drop_threshold=0.9)
        c = copy(1, ftd=0.2)
        q.insert(c)
        head = q.pop()
        assert not q.reinsert_with_ftd(head, 0.95)
        assert len(q) == 0

    def test_reinsert_with_updated_ftd_keeps_message(self):
        q = FtdQueue(10)
        q.insert(copy(1, ftd=0.2))
        head = q.pop()
        assert q.reinsert_with_ftd(head, 0.5)
        assert q.peek().ftd == pytest.approx(0.5)

    def test_reinsert_of_a_buffered_id_raises(self):
        q = FtdQueue(10)
        q.insert(copy(1, ftd=0.2))
        q.insert(copy(2, ftd=0.4))
        with pytest.raises(ValueError, match="already buffered"):
            q.reinsert_with_ftd(copy(1, ftd=0.2), 0.5)
        assert [c.message_id for c in q] == [1, 2]
        assert q.peek().ftd == 0.2
        assert q.stats.reinserted == 0

    def test_sink_confirmed_copy_ftd_one_always_dropped(self):
        q = FtdQueue(10, drop_threshold=1.0)
        q.insert(copy(1, ftd=0.0))
        head = q.pop()
        assert not q.reinsert_with_ftd(head, 1.0)


class TestDuplicates:
    def test_duplicate_keeps_smaller_ftd(self):
        q = FtdQueue(10)
        q.insert(copy(1, ftd=0.5))
        q.insert(copy(1, ftd=0.2))
        assert len(q) == 1
        assert q.peek().ftd == pytest.approx(0.2)
        assert q.stats.duplicates_merged == 1

    def test_duplicate_with_larger_ftd_ignored(self):
        q = FtdQueue(10)
        q.insert(copy(1, ftd=0.2))
        q.insert(copy(1, ftd=0.7))
        assert len(q) == 1
        assert q.peek().ftd == pytest.approx(0.2)


class TestQueries:
    def test_available_slots_counts_free_plus_displaceable(self):
        q = FtdQueue(3)
        q.insert(copy(1, ftd=0.1))
        q.insert(copy(2, ftd=0.6))
        # one free slot + one message with ftd > 0.3
        assert q.available_slots_for(0.3) == 2
        # nothing above 0.8
        assert q.available_slots_for(0.8) == 1

    def test_importance_fraction_eq5(self):
        q = FtdQueue(4)
        q.insert(copy(1, ftd=0.1))
        q.insert(copy(2, ftd=0.9 - 1e-9))
        assert q.count_more_important_than(0.5) == 1
        assert q.importance_fraction(0.5) == pytest.approx(0.25)

    def test_remove_by_id(self):
        q = FtdQueue(4)
        q.insert(copy(1, ftd=0.1))
        removed = q.remove(1)
        assert removed is not None and removed.message_id == 1
        assert q.remove(1) is None
        assert len(q) == 0

    def test_contains_and_iter(self):
        q = FtdQueue(4)
        q.insert(copy(5, ftd=0.3))
        assert 5 in q
        assert [c.message_id for c in q] == [5]


class TestInvariants:
    @given(st.lists(st.tuples(st.integers(0, 30),
                              st.floats(0, 0.89)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_sorted_capacity_and_uniqueness_invariants(self, items):
        q = FtdQueue(8, drop_threshold=0.9)
        for mid, f in items:
            q.insert(copy(mid, ftd=f))
            snapshot = list(q)
            ftds = [c.ftd for c in snapshot]
            assert ftds == sorted(ftds)
            assert len(q) <= 8
            ids = [c.message_id for c in snapshot]
            assert len(ids) == len(set(ids))

    @given(st.lists(st.floats(0, 0.89), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_pop_drains_in_sorted_order(self, ftds):
        q = FtdQueue(32)
        for i, f in enumerate(ftds):
            q.insert(copy(i, ftd=f))
        popped = [q.pop().ftd for _ in range(len(q))]
        assert popped == sorted(popped)
