"""Integration tests driving the MAC + protocol agents on small,
deterministic (stationary) topologies."""

import random

import pytest

from repro.core.message import DataMessage, fresh_message_id
from repro.core.params import ProtocolParameters
from repro.core.protocol import AgentState, CrossLayerAgent, SinkAgent
from repro.core.queue import FtdQueue
from repro.des import EventScheduler
from repro.energy import BERKELEY_MOTE
from repro.metrics import MetricsCollector
from repro.mobility import Area, MobilityManager, StationaryMobility
from repro.protocols.direct import DirectAgent
from repro.protocols.epidemic import EpidemicAgent
from repro.protocols.zbr import ZbrAgent
from repro.radio import ChannelTiming, Transceiver, WirelessMedium
from repro.radio.states import RadioState


class World:
    """A tiny hand-built network for protocol tests."""

    def __init__(self, positions, agent_classes, params=None, seed=1):
        self.scheduler = EventScheduler()
        self.collector = MetricsCollector()
        self.params = params or ProtocolParameters()
        area = Area(1000.0, 1000.0)
        model = StationaryMobility(list(range(len(positions))), area,
                                   positions=positions)
        self.mobility = MobilityManager(self.scheduler, area, [model],
                                        comm_range=10.0)
        self.medium = WirelessMedium(self.scheduler, ChannelTiming(),
                                     self.mobility)
        self.agents = []
        rng = random.Random(seed)
        for node_id, cls in enumerate(agent_classes):
            radio = Transceiver(node_id, self.medium, self.scheduler,
                                BERKELEY_MOTE)
            threshold = (1.0 if cls in (ZbrAgent, DirectAgent,
                                        EpidemicAgent, SinkAgent)
                         else self.params.ftd_drop_threshold)
            queue = FtdQueue(self.params.queue_capacity,
                             drop_threshold=threshold)
            agent = cls(node_id, radio, self.scheduler, self.params,
                        random.Random(rng.random()), queue,
                        collector=self.collector)
            self.agents.append(agent)

    def start(self):
        for agent in self.agents:
            agent.start()

    def inject(self, agent, created_at=0.0):
        msg = DataMessage(message_id=fresh_message_id(),
                          origin=agent.node_id, created_at=created_at)
        self.collector.record_generation(msg.message_id, created_at)
        agent.enqueue_message(msg)
        return msg

    def run(self, t):
        self.scheduler.run_until(t)


NOSLEEP = ProtocolParameters.nosleep()


class TestDirectToSink:
    def test_message_reaches_adjacent_sink(self):
        w = World([(0, 0), (5, 0)], [SinkAgent, CrossLayerAgent],
                  params=NOSLEEP)
        w.start()
        msg = w.inject(w.agents[1])
        w.run(30.0)
        assert w.collector.messages_delivered == 1
        record = w.collector.deliveries[msg.message_id]
        assert record.sink_id == 0
        assert record.hops == 1

    def test_sender_drops_copy_after_sink_ack(self):
        w = World([(0, 0), (5, 0)], [SinkAgent, CrossLayerAgent],
                  params=NOSLEEP)
        w.start()
        w.inject(w.agents[1])
        w.run(30.0)
        assert len(w.agents[1].queue) == 0
        assert w.agents[1].queue.stats.drops_threshold >= 1

    def test_sender_xi_rises_after_sink_delivery(self):
        w = World([(0, 0), (5, 0)], [SinkAgent, CrossLayerAgent],
                  params=NOSLEEP)
        w.start()
        w.inject(w.agents[1])
        w.run(30.0)
        assert w.agents[1].xi == pytest.approx(NOSLEEP.alpha)

    def test_out_of_range_sink_gets_nothing(self):
        w = World([(0, 0), (500, 0)], [SinkAgent, CrossLayerAgent],
                  params=NOSLEEP)
        w.start()
        w.inject(w.agents[1])
        w.run(30.0)
        assert w.collector.messages_delivered == 0
        assert len(w.agents[1].queue) == 1


class TestRelaying:
    def test_message_flows_through_higher_xi_relay(self):
        # sender(2) -- relay(1) -- sink(0): sender cannot reach the sink.
        w = World([(0, 0), (8, 0), (16, 0)],
                  [SinkAgent, CrossLayerAgent, CrossLayerAgent],
                  params=NOSLEEP)
        relay, sender = w.agents[1], w.agents[2]
        relay.estimator.on_transmission([1.0])  # give the relay xi = 0.3
        w.start()
        msg = w.inject(sender)
        w.run(120.0)
        assert w.collector.messages_delivered == 1
        assert w.collector.deliveries[msg.message_id].hops == 2

    def test_equal_xi_receiver_stays_silent(self):
        # Qualification requires *strictly* higher delivery probability.
        w = World([(0, 0), (8, 0)],
                  [CrossLayerAgent, CrossLayerAgent], params=NOSLEEP)
        w.start()
        w.inject(w.agents[1])
        w.run(30.0)
        assert w.agents[0].stats.cts_sent == 0
        assert w.agents[1].stats.multicasts_confirmed == 0

    def test_receiver_copy_carries_eq2_ftd(self):
        w = World([(0, 0), (8, 0), (16, 0)],
                  [SinkAgent, CrossLayerAgent, CrossLayerAgent],
                  params=NOSLEEP)
        relay, sender = w.agents[1], w.agents[2]
        relay.estimator.on_transmission([1.0])
        # Capture the FTD assigned on the relay's *first* reception.
        seen = []
        original = relay.on_data_accepted

        def capture(frame, assigned_ftd):
            seen.append((assigned_ftd, frame.payload.hops))
            original(frame, assigned_ftd)

        relay.on_data_accepted = capture
        w.start()
        w.inject(sender)
        w.run(60.0)
        assert seen, "relay never received the message"
        first_ftd, sender_hops = seen[0]
        # Eq. 2 with one receiver: F_j = 1 - (1-0)(1 - xi_sender) = 0
        # (the sender's xi is still 0 on its first ever transmission).
        assert first_ftd == pytest.approx(0.0, abs=1e-9)
        assert sender_hops == 0  # the copy had not travelled yet


class TestSleeping:
    def test_opt_node_with_nothing_to_do_sleeps(self):
        params = ProtocolParameters.opt()
        w = World([(0, 0)], [CrossLayerAgent], params=params)
        w.start()
        w.run(120.0)
        agent = w.agents[0]
        agent.radio.finalize()
        assert agent.sleep_scheduler.sleeps_taken >= 1
        assert agent.radio.meter.per_state_s[RadioState.SLEEPING] > 0

    def test_nosleep_node_never_sleeps(self):
        w = World([(0, 0)], [CrossLayerAgent], params=NOSLEEP)
        w.start()
        w.run(300.0)
        agent = w.agents[0]
        agent.radio.finalize()
        assert agent.sleep_scheduler.sleeps_taken == 0
        assert agent.radio.meter.per_state_s[RadioState.SLEEPING] == 0.0

    def test_sleeping_node_wakes_and_resumes(self):
        params = ProtocolParameters.opt()
        w = World([(0, 0)], [CrossLayerAgent], params=params)
        w.start()
        w.run(500.0)
        agent = w.agents[0]
        assert agent.sleep_scheduler.sleeps_taken >= 2  # sleep/wake cycles

    def test_sink_never_sleeps(self):
        w = World([(0, 0), (5, 0)], [SinkAgent, CrossLayerAgent])
        w.start()
        w.run(300.0)
        sink = w.agents[0]
        sink.radio.finalize()
        assert sink.radio.meter.per_state_s[RadioState.SLEEPING] == 0.0


class TestZbr:
    def test_custody_transfer_single_copy(self):
        # sender(2) -- relay(1) -- sink(0); relay has sink history.
        w = World([(0, 0), (8, 0), (16, 0)],
                  [SinkAgent, ZbrAgent, ZbrAgent], params=NOSLEEP)
        relay, sender = w.agents[1], w.agents[2]
        relay.record_direct_sink_success()
        w.start()
        msg = w.inject(sender)
        w.run(120.0)
        assert w.collector.messages_delivered == 1
        # Custody transfer: the sender no longer holds a copy.
        assert msg.message_id not in sender.queue

    def test_zero_history_nodes_do_not_relay_for_each_other(self):
        w = World([(0, 0), (8, 0)], [ZbrAgent, ZbrAgent], params=NOSLEEP)
        w.start()
        w.inject(w.agents[1])
        w.run(60.0)
        assert w.agents[0].stats.data_received == 0

    def test_direct_sink_contact_raises_history(self):
        w = World([(0, 0), (5, 0)], [SinkAgent, ZbrAgent], params=NOSLEEP)
        w.start()
        w.inject(w.agents[1])
        w.run(30.0)
        assert w.agents[1].success_rate > 0.0


class TestDirectAgent:
    def test_sensors_never_relay(self):
        w = World([(0, 0), (8, 0), (16, 0)],
                  [SinkAgent, DirectAgent, DirectAgent], params=NOSLEEP)
        w.start()
        w.inject(w.agents[2])  # sender out of sink range
        w.run(120.0)
        assert w.collector.messages_delivered == 0
        assert w.agents[1].stats.data_received == 0

    def test_delivers_when_meeting_sink(self):
        w = World([(0, 0), (5, 0)], [SinkAgent, DirectAgent],
                  params=NOSLEEP)
        w.start()
        w.inject(w.agents[1])
        w.run(30.0)
        assert w.collector.messages_delivered == 1


class TestEpidemic:
    def test_floods_to_any_neighbor(self):
        w = World([(0, 0), (8, 0)], [EpidemicAgent, EpidemicAgent],
                  params=NOSLEEP)
        w.start()
        w.inject(w.agents[1])
        w.run(60.0)
        assert w.agents[0].stats.data_received >= 1

    def test_chain_delivery_through_flooding(self):
        w = World([(0, 0), (8, 0), (16, 0)],
                  [SinkAgent, EpidemicAgent, EpidemicAgent],
                  params=NOSLEEP)
        w.start()
        msg = w.inject(w.agents[2])
        w.run(120.0)
        assert w.collector.messages_delivered == 1
        assert w.collector.deliveries[msg.message_id].hops == 2


class TestContentionResolution:
    def test_two_senders_one_sink_both_eventually_deliver(self):
        w = World([(0, 0), (5, 0), (0, 5)],
                  [SinkAgent, CrossLayerAgent, CrossLayerAgent],
                  params=NOSLEEP)
        w.start()
        w.inject(w.agents[1])
        w.inject(w.agents[2])
        w.run(120.0)
        assert w.collector.messages_delivered == 2

    def test_many_contenders_still_progress(self):
        positions = [(0, 0)] + [(3 + i * 0.5, 0) for i in range(6)]
        classes = [SinkAgent] + [CrossLayerAgent] * 6
        w = World(positions, classes, params=NOSLEEP)
        w.start()
        for agent in w.agents[1:]:
            w.inject(agent)
        w.run(300.0)
        assert w.collector.messages_delivered == 6
