"""Epidemic (flooding) delivery: replicate to everyone encountered.

The maximal-redundancy extreme analyzed in the authors' earlier work [5]:
every contact with buffer room receives a copy, giving the best possible
delivery ratio/delay at the worst possible energy and buffer cost.  Runs
on the shared MAC; the queue is rotated after each multicast so a node
cycles through its buffered messages instead of re-offering the head.

Both simulation levels are implemented here: :class:`EpidemicAgent` on
the shared two-phase MAC, :class:`EpidemicPolicy` at contact
granularity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.contact.policies import ContactPolicy
from repro.core.message import MessageCopy
from repro.core.protocol import MacAgent
from repro.core.selection import Candidate
from repro.radio.frames import DataFrame, Rts


class EpidemicAgent(MacAgent):
    """Flood every message to every neighbor with buffer space."""

    def advertised_metric(self) -> float:
        # Every node advertises 0 so that "higher metric" never gates a
        # transfer; qualification is purely buffer-space below.
        """Flooding ignores metrics; advertise nothing."""
        return 0.0

    def evaluate_rts(self, rts: Rts) -> Tuple[bool, int]:
        """Qualify whenever there is buffer room for a new message."""
        if rts.message_id in self.queue:
            return False, 0  # already infected with this message
        slots = self.queue.free_slots
        return slots > 0, slots

    def build_phi(self, head: MessageCopy,
                  candidates: Sequence[Candidate]) -> List[Candidate]:
        """Every responder with buffer room receives a copy."""
        return [c for c in candidates if c.is_sink or c.buffer_slots > 0]

    def copy_assignments(self, head: MessageCopy,
                         phi: Sequence[Candidate]) -> Dict[int, float]:
        """Copies stay maximally urgent; flooding has no FTD notion."""
        return {c.node_id: 0.0 for c in phi}

    def on_data_accepted(self, frame: DataFrame, assigned_ftd: float) -> None:
        """Store the replica (duplicates merge in the queue)."""
        copy: MessageCopy = frame.payload
        self.queue.insert(copy.forwarded(0.0, self.scheduler.now))

    def after_multicast(self, head: MessageCopy,
                        confirmed: Sequence[Candidate]) -> None:
        """Keep replicating; rotate the queue, retire on sink ACK."""
        if not confirmed:
            return
        self.queue.remove(head.message_id)
        if not any(c.is_sink for c in confirmed):
            # Keep our replica but rotate it to the back of the queue so
            # the next cycle offers a different message.
            self.queue.reinsert_with_ftd(head, head.ftd)


class EpidemicPolicy(ContactPolicy):
    """Flood to every peer with buffer room (the high-overhead extreme).

    Offers, in FIFO order, messages the peer does not already hold.
    """

    def metric(self, now: float) -> float:
        """Flooding ignores metrics."""
        return 1.0 if self.is_sink else 0.0

    def wants_to_send(self, peer: ContactPolicy,
                      now: float) -> Optional[MessageCopy]:
        """Offer (FIFO) any message the peer does not already hold."""
        if self.is_sink:
            return None
        for copy in self.queue:
            if peer.is_sink:
                if copy.message_id in peer.delivered_seen:
                    # Sink-side immunization: the sink already has it, so
                    # cure this replica instead of wasting contact budget.
                    self.queue.remove(copy.message_id)
                    continue
                return copy
            if copy.message_id not in peer.queue and peer.queue.free_slots > 0:
                return copy
        return None

    def accept(self, copy: MessageCopy, sender: ContactPolicy,
               now: float) -> Optional[MessageCopy]:
        """Store the replica, evicting the oldest on overflow."""
        # Epidemic uses drop-oldest on overflow: with drop-newest the
        # buffer freezes on the oldest 200 messages and fresh traffic
        # never propagates (delivery collapses below even direct
        # transmission).  Dropping the head keeps the flood current.
        if not self.is_sink and self.queue.free_slots == 0:
            if copy.message_id not in self.queue:
                self.queue.pop()
        return super().accept(copy, sender, now)

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        """Keep replicating; only a sink transfer retires the local copy."""
        self.transfers_out += 1
        if peer.is_sink:
            self.queue.remove(copy.message_id)
