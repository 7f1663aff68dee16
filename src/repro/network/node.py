"""Node containers: a wearable sensor and a high-end sink.

Nodes wire together the per-node pieces (radio, queue, protocol agent,
traffic generator) and own the application-level act of sensing: turning
a reading into a :class:`~repro.core.message.DataMessage`, registering it
with the metrics collector and handing it to the agent.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.message import DataMessage
from repro.core.protocol import MacAgent, SinkAgent
from repro.core.queue import FtdQueue
from repro.des.scheduler import EventScheduler
from repro.metrics.collector import MetricsCollector
from repro.radio.transceiver import Transceiver
from repro.traffic.generators import TrafficGenerator


class SensorNode:
    """A wearable sensor: generates, carries and forwards data messages."""

    def __init__(
        self,
        node_id: int,
        agent: MacAgent,
        radio: Transceiver,
        queue: FtdQueue,
        scheduler: EventScheduler,
        collector: MetricsCollector,
        next_message_id: Callable[[], int],
        message_bits: int = 1000,
        traffic: Optional[TrafficGenerator] = None,
    ) -> None:
        self.node_id = node_id
        self.agent = agent
        self.radio = radio
        self.queue = queue
        self.scheduler = scheduler
        self.collector = collector
        self.message_bits = message_bits
        self.traffic = traffic
        #: The simulation's per-run message-id counter.
        self.next_message_id = next_message_id

    def start(self) -> None:
        """Boot this node's agent (and traffic, for sensors)."""
        self.agent.start()
        if self.traffic is not None:
            self.traffic.start()

    def on_sense(self) -> DataMessage:
        """The sensing unit produced a reading: queue a new message."""
        message = DataMessage(
            message_id=self.next_message_id(),
            origin=self.node_id,
            created_at=self.scheduler.now,
            size_bits=self.message_bits,
        )
        self.collector.record_generation(message.message_id, message.created_at,
                                         origin=self.node_id)
        self.agent.enqueue_message(message)
        return message

    def finalize(self) -> None:
        """Flush end-of-run accounting."""
        self.agent.finalize()


class SinkNode:
    """A high-end sink: always-on receiver that records deliveries."""

    def __init__(self, node_id: int, agent: SinkAgent, radio: Transceiver) -> None:
        self.node_id = node_id
        self.agent = agent
        self.radio = radio

    def start(self) -> None:
        """Boot this node's agent (and traffic, for sensors)."""
        self.agent.start()

    def finalize(self) -> None:
        """Flush end-of-run accounting."""
        self.agent.finalize()
