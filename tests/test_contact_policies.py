"""Unit tests for contact-level routing policies."""

import pytest

from repro.contact.policies import LazyXiEstimator
from repro.core.message import DataMessage
from repro.protocols.direct import DirectPolicy
from repro.protocols.epidemic import EpidemicPolicy
from repro.protocols.fad import FadPolicy
from repro.protocols.spray import SprayAndWaitPolicy
from repro.protocols.zbr import ZbrHistoryPolicy


def msg(mid, origin=5, t=0.0):
    return DataMessage(message_id=mid, origin=origin, created_at=t)


class TestLazyXiEstimator:
    def test_initial_value(self):
        assert LazyXiEstimator().xi(0.0) == 0.0
        assert LazyXiEstimator(initial_xi=1.0).xi(0.0) == 1.0

    def test_transmission_update(self):
        est = LazyXiEstimator(alpha=0.3)
        est.on_transmission(1.0, now=0.0)
        assert est.xi(0.0) == pytest.approx(0.3)

    def test_lazy_decay_matches_step_count(self):
        est = LazyXiEstimator(alpha=0.5, timeout_s=10.0)
        est.on_transmission(1.0, now=0.0)  # xi = 0.5
        # Three full timeouts elapse by t = 35.
        assert est.xi(35.0) == pytest.approx(0.5 * 0.5**3)

    def test_no_decay_within_timeout(self):
        est = LazyXiEstimator(alpha=0.5, timeout_s=10.0)
        est.on_transmission(1.0, now=0.0)
        assert est.xi(9.9) == pytest.approx(0.5)

    def test_transmission_resets_decay_clock(self):
        est = LazyXiEstimator(alpha=0.5, timeout_s=10.0)
        est.on_transmission(1.0, now=0.0)
        est.on_transmission(1.0, now=9.0)  # xi = 0.75, clock at 9
        assert est.xi(18.0) == pytest.approx(0.75)
        assert est.xi(19.5) == pytest.approx(0.375)

    def test_out_of_order_read_is_tolerated(self):
        est = LazyXiEstimator()
        est.on_transmission(1.0, now=10.0)
        assert est.xi(9.0) == pytest.approx(0.3)  # no decay, no crash

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LazyXiEstimator(alpha=1.5)
        with pytest.raises(ValueError):
            LazyXiEstimator(timeout_s=0.0)
        est = LazyXiEstimator()
        with pytest.raises(ValueError):
            est.on_transmission(1.2, now=0.0)


class TestFadPolicy:
    def test_sends_only_to_strictly_better(self):
        low, high = FadPolicy(1), FadPolicy(2)
        low.enqueue_new(msg(0))
        assert low.wants_to_send(high, 0.0) is None  # both xi = 0
        high.estimator.on_transmission(1.0, 0.0)
        assert low.wants_to_send(high, 0.0) is not None

    def test_sink_always_qualifies(self):
        node, sink = FadPolicy(1), FadPolicy(0, is_sink=True)
        node.enqueue_new(msg(0))
        assert node.wants_to_send(sink, 0.0) is not None
        assert sink.metric(0.0) == 1.0

    def test_transfer_updates_eq1_eq2_eq3(self):
        node, sink = FadPolicy(1), FadPolicy(0, is_sink=True)
        node.enqueue_new(msg(0))
        copy = node.wants_to_send(sink, 1.0)
        stored = sink.accept(copy, node, 1.0)
        node.after_transfer(copy, sink, 1.0)
        # Eq. 1: xi jumps by alpha toward the sink's 1.0.
        assert node.metric(1.0) == pytest.approx(0.3)
        # Eq. 3 with a sink receiver drives the local FTD to 1 -> dropped.
        assert 0 not in node.queue
        # Receiver copy hops incremented.
        assert stored.hops == 1

    def test_sensor_receiver_gets_eq2_ftd(self):
        a, b = FadPolicy(1), FadPolicy(2)
        b.estimator.on_transmission(1.0, 0.0)  # b xi = 0.3
        a.enqueue_new(msg(0))
        copy = a.wants_to_send(b, 0.0)
        stored = b.accept(copy, a, 0.0)
        a.after_transfer(copy, b, 0.0)
        # Eq. 2, single receiver: F_b = 1 - (1-0)(1 - xi_a) = xi_a = 0.
        assert stored.ftd == pytest.approx(0.0)
        # Sender keeps a copy with Eq. 3 FTD = 0.3.
        assert a.queue.peek().ftd == pytest.approx(0.3)

    def test_full_peer_buffer_blocks_transfer(self):
        a = FadPolicy(1)
        b = FadPolicy(2, capacity=1)
        b.estimator.on_transmission(1.0, 0.0)
        b.enqueue_new(msg(99))  # ftd 0 fills the only slot
        a.enqueue_new(msg(0))
        assert a.wants_to_send(b, 0.0) is None


class TestDirectEpidemic:
    def test_direct_ignores_sensors(self):
        a, b = DirectPolicy(1), DirectPolicy(2)
        a.enqueue_new(msg(0))
        assert a.wants_to_send(b, 0.0) is None

    def test_direct_hands_to_sink_and_drops(self):
        a, sink = DirectPolicy(1), DirectPolicy(0, is_sink=True)
        a.enqueue_new(msg(0))
        copy = a.wants_to_send(sink, 0.0)
        sink.accept(copy, a, 0.0)
        a.after_transfer(copy, sink, 0.0)
        assert len(a.queue) == 0

    def test_epidemic_offers_messages_peer_lacks(self):
        a, b = EpidemicPolicy(1), EpidemicPolicy(2)
        a.enqueue_new(msg(0))
        a.enqueue_new(msg(1))
        first = a.wants_to_send(b, 0.0)
        b.accept(first, a, 0.0)
        a.after_transfer(first, b, 0.0)
        second = a.wants_to_send(b, 0.0)
        assert second is not None
        assert second.message_id != first.message_id

    def test_epidemic_keeps_local_copy_on_sensor_transfer(self):
        a, b = EpidemicPolicy(1), EpidemicPolicy(2)
        a.enqueue_new(msg(0))
        copy = a.wants_to_send(b, 0.0)
        b.accept(copy, a, 0.0)
        a.after_transfer(copy, b, 0.0)
        assert 0 in a.queue and 0 in b.queue


class TestZbrPolicy:
    def test_custody_and_history(self):
        a, b = ZbrHistoryPolicy(1), ZbrHistoryPolicy(2)
        sink = ZbrHistoryPolicy(0, is_sink=True)
        a.enqueue_new(msg(0))
        assert a.wants_to_send(b, 0.0) is None  # equal zero history
        copy = a.wants_to_send(sink, 0.0)
        sink.accept(copy, a, 0.0)
        a.after_transfer(copy, sink, 0.0)
        assert 0 not in a.queue
        assert a.metric(0.0) > 0.0
        # Now b (zero history) would forward to a.
        b.enqueue_new(msg(1))
        assert b.wants_to_send(a, 0.0) is not None


class TestSprayAndWait:
    def test_budget_halves_per_spray(self):
        a = SprayAndWaitPolicy(1, initial_copies=8)
        b = SprayAndWaitPolicy(2, initial_copies=8)
        a.enqueue_new(msg(0))
        copy = a.wants_to_send(b, 0.0)
        b.accept(copy, a, 0.0)
        a.after_transfer(copy, b, 0.0)
        assert a.copy_budget[0] == 4
        assert b.copy_budget[0] == 4

    def test_wait_phase_only_sinks(self):
        a = SprayAndWaitPolicy(1, initial_copies=1)
        b = SprayAndWaitPolicy(2, initial_copies=1)
        sink = SprayAndWaitPolicy(0, is_sink=True)
        a.enqueue_new(msg(0))
        assert a.wants_to_send(b, 0.0) is None   # budget 1: wait phase
        assert a.wants_to_send(sink, 0.0) is not None

    def test_sink_transfer_clears_budget(self):
        a = SprayAndWaitPolicy(1, initial_copies=4)
        sink = SprayAndWaitPolicy(0, is_sink=True)
        a.enqueue_new(msg(0))
        copy = a.wants_to_send(sink, 0.0)
        sink.accept(copy, a, 0.0)
        a.after_transfer(copy, sink, 0.0)
        assert 0 not in a.queue
        assert 0 not in a.copy_budget

    def test_rejects_zero_copies(self):
        with pytest.raises(ValueError):
            SprayAndWaitPolicy(1, initial_copies=0)
