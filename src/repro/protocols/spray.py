"""Binary Spray-and-Wait (Spyropoulos, Psounis & Raghavendra, WDTN 2005).

A classic DTN comparator added as an extension, contact level only.
Each message starts with ``initial_copies`` logical copies; on contact
a carrier holding ``n > 1`` copies hands ``floor(n/2)`` to the peer;
carriers with one copy wait for a sink.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.contact.policies import ContactPolicy
from repro.core.message import DataMessage, MessageCopy


class SprayAndWaitPolicy(ContactPolicy):
    """Binary Spray-and-Wait at contact granularity."""

    def __init__(self, node_id: int, capacity: int = 200,
                 initial_copies: int = 8, is_sink: bool = False) -> None:
        super().__init__(node_id, capacity, 1.0, is_sink)
        if initial_copies < 1:
            raise ValueError("need at least one copy")
        self.initial_copies = initial_copies
        self.copy_budget: Dict[int, int] = {}

    def metric(self, now: float) -> float:
        """Spray-and-wait ignores metrics."""
        return 1.0 if self.is_sink else 0.0

    def enqueue_new(self, message: DataMessage) -> None:
        """New messages start with the full spray budget."""
        super().enqueue_new(message)
        self.copy_budget[message.message_id] = self.initial_copies

    def wants_to_send(self, peer: ContactPolicy,
                      now: float) -> Optional[MessageCopy]:
        """Spray while the budget exceeds one; wait for a sink after."""
        if self.is_sink:
            return None
        for copy in self.queue:
            if peer.is_sink:
                if copy.message_id in peer.delivered_seen:
                    self.queue.remove(copy.message_id)
                    self.copy_budget.pop(copy.message_id, None)
                    continue
                return copy
            budget = self.copy_budget.get(copy.message_id, 1)
            if (budget > 1 and copy.message_id not in peer.queue
                    and peer.queue.free_slots > 0):
                return copy
        return None

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        """Binary split: hand half the remaining copy budget to the peer."""
        self.transfers_out += 1
        if peer.is_sink:
            self.queue.remove(copy.message_id)
            self.copy_budget.pop(copy.message_id, None)
            return
        budget = self.copy_budget.get(copy.message_id, 1)
        given = budget // 2
        self.copy_budget[copy.message_id] = budget - given
        if isinstance(peer, SprayAndWaitPolicy):
            peer.copy_budget[copy.message_id] = max(
                given, peer.copy_budget.get(copy.message_id, 0))
