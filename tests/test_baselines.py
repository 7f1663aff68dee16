"""Unit tests for baseline agent policies (hook-level, no radio needed)."""

import random

import pytest

from repro.core.message import DataMessage, MessageCopy
from repro.core.params import ProtocolParameters
from repro.core.protocol import CrossLayerAgent, SinkAgent
from repro.core.queue import FtdQueue
from repro.core.selection import Candidate
from repro.des import EventScheduler
from repro.energy import BERKELEY_MOTE
from repro.mobility import Area, MobilityManager, StationaryMobility
from repro.protocols.direct import DirectAgent
from repro.protocols.epidemic import EpidemicAgent
from repro.protocols.zbr import ZbrAgent
from repro.radio import ChannelTiming, Transceiver, WirelessMedium
from repro.radio.frames import Rts


def make_agent(cls, node_id=1, params=None, capacity=10):
    sched = EventScheduler()
    area = Area(100, 100)
    model = StationaryMobility([node_id], area, positions=[(1, 1)])
    mgr = MobilityManager(sched, area, [model])
    medium = WirelessMedium(sched, ChannelTiming(), mgr)
    radio = Transceiver(node_id, medium, sched, BERKELEY_MOTE)
    queue = FtdQueue(capacity, drop_threshold=1.0)
    params = params or ProtocolParameters()
    return cls(node_id, radio, sched, params, random.Random(0), queue)


def copy_of(mid=0, ftd=0.0):
    return MessageCopy(DataMessage(mid, 9, 0.0), ftd=ftd)


def cand(nid, xi, slots=5, sink=False):
    return Candidate(nid, xi, slots, sink)


class TestZbrPolicy:
    def test_metric_starts_at_zero(self):
        agent = make_agent(ZbrAgent)
        assert agent.advertised_metric() == 0.0

    def test_qualification_requires_strictly_higher_history(self):
        agent = make_agent(ZbrAgent)
        agent.record_direct_sink_success()  # rate = alpha
        rate = agent.success_rate
        assert rate > 0.0
        ok, _ = agent.evaluate_rts(Rts(5, xi=rate * 0.5))
        assert ok
        ok, _ = agent.evaluate_rts(Rts(5, xi=rate))
        assert not ok

    def test_full_queue_disqualifies(self):
        agent = make_agent(ZbrAgent, capacity=1)
        agent.record_direct_sink_success()
        agent.queue.insert(copy_of(1))
        ok, slots = agent.evaluate_rts(Rts(5, xi=0.0))
        assert not ok and slots == 0

    def test_single_receiver_prefers_sink(self):
        agent = make_agent(ZbrAgent)
        phi = agent.build_phi(copy_of(), [cand(2, 0.9), cand(3, 1.0, sink=True)])
        assert [c.node_id for c in phi] == [3]

    def test_single_receiver_best_history_otherwise(self):
        agent = make_agent(ZbrAgent)
        phi = agent.build_phi(copy_of(), [cand(2, 0.4), cand(3, 0.7)])
        assert [c.node_id for c in phi] == [3]

    def test_no_qualified_candidates_empty_phi(self):
        agent = make_agent(ZbrAgent)
        agent.record_direct_sink_success()
        agent.record_direct_sink_success()
        rate = agent.success_rate
        phi = agent.build_phi(copy_of(), [cand(2, rate * 0.9)])
        assert phi == []

    def test_custody_transfer_removes_copy(self):
        agent = make_agent(ZbrAgent)
        c = copy_of(4)
        agent.queue.insert(c)
        agent.after_multicast(c, [cand(2, 0.5)])
        assert 4 not in agent.queue

    def test_history_rises_only_on_sink_transfer(self):
        agent = make_agent(ZbrAgent)
        c = copy_of(4)
        agent.queue.insert(c)
        agent.after_multicast(c, [cand(2, 0.5)])
        assert agent.success_rate == 0.0
        c2 = copy_of(5)
        agent.queue.insert(c2)
        agent.after_multicast(c2, [cand(0, 1.0, sink=True)])
        assert agent.success_rate > 0.0


class TestDirectPolicy:
    def test_never_qualifies_as_relay(self):
        agent = make_agent(DirectAgent)
        ok, slots = agent.evaluate_rts(Rts(5, xi=0.0))
        assert not ok and slots == 0

    def test_phi_contains_only_a_sink(self):
        agent = make_agent(DirectAgent)
        phi = agent.build_phi(copy_of(),
                              [cand(2, 0.9), cand(3, 1.0, sink=True),
                               cand(4, 1.0, sink=True)])
        assert len(phi) == 1 and phi[0].is_sink

    def test_no_sink_no_phi(self):
        agent = make_agent(DirectAgent)
        assert agent.build_phi(copy_of(), [cand(2, 0.9)]) == []

    def test_copy_removed_only_on_sink_confirm(self):
        agent = make_agent(DirectAgent)
        c = copy_of(4)
        agent.queue.insert(c)
        agent.after_multicast(c, [])
        assert 4 in agent.queue
        agent.after_multicast(c, [cand(0, 1.0, sink=True)])
        assert 4 not in agent.queue


class TestEpidemicPolicy:
    def test_any_buffer_space_qualifies(self):
        agent = make_agent(EpidemicAgent)
        ok, slots = agent.evaluate_rts(Rts(5, xi=0.0))
        assert ok and slots == 10

    def test_phi_is_everyone(self):
        agent = make_agent(EpidemicAgent)
        phi = agent.build_phi(copy_of(),
                              [cand(2, 0.0, slots=3), cand(3, 0.0, slots=1)])
        assert len(phi) == 2

    def test_rotation_after_nonsink_multicast(self):
        agent = make_agent(EpidemicAgent)
        first, second = copy_of(1), copy_of(2)
        agent.queue.insert(first)
        agent.queue.insert(second)
        head = agent.queue.peek()
        assert head.message_id == 1
        agent.after_multicast(head, [cand(5, 0.0)])
        # Message 1 rotated to the back; message 2 now leads.
        assert agent.queue.peek().message_id == 2
        assert 1 in agent.queue

    def test_sink_confirmation_drops_copy(self):
        agent = make_agent(EpidemicAgent)
        c = copy_of(7)
        agent.queue.insert(c)
        agent.after_multicast(c, [cand(0, 1.0, sink=True)])
        assert 7 not in agent.queue


class TestSinkPolicy:
    def test_sink_advertises_certainty(self):
        agent = make_agent(SinkAgent)
        assert agent.advertised_metric() == 1.0
        ok, slots = agent.evaluate_rts(Rts(5, xi=0.99))
        assert ok and slots == 10

    def test_sink_never_builds_phi(self):
        agent = make_agent(SinkAgent)
        assert agent.build_phi(copy_of(), [cand(2, 0.5)]) == []


class TestCrossLayerPolicy:
    def test_assignments_follow_eq2(self):
        agent = make_agent(CrossLayerAgent)
        head = copy_of(1, ftd=0.0)
        phi = [cand(2, 0.5), cand(3, 0.4)]
        assignments = agent.copy_assignments(head, phi)
        # xi_sender = 0: F_2 = 1 - (1-0)(1-0)(1-0.4) = 0.4
        assert assignments[2] == pytest.approx(0.4)
        assert assignments[3] == pytest.approx(0.5)

    def test_qualification_needs_buffer_for_ftd(self):
        agent = make_agent(CrossLayerAgent, capacity=1)
        agent.estimator.on_transmission([1.0])
        agent.queue.insert(copy_of(1, ftd=0.1))
        # Full queue and incoming FTD above everything queued: no room.
        ok, slots = agent.evaluate_rts(Rts(5, xi=0.0, ftd=0.5))
        assert not ok and slots == 0
        # An incoming more-important message could displace the queued one.
        ok, slots = agent.evaluate_rts(Rts(5, xi=0.0, ftd=0.05))
        assert ok and slots == 1
