"""FAD: the paper's fault-tolerance-based forwarding at contact level.

The single-receiver specialization of Sec. 3 without a MAC, from the
authors' earlier DFT-MSN work: a peer with strictly higher xi (or a
sink) receives the lowest-FTD message; Eq. 2 sets the transferred
copy's FTD, Eq. 3 the local copy's, Eq. 1 the xi.  It reuses the exact
Eq. 1-3 machinery of :mod:`repro.core`, so the contact-level and
packet-level stacks share one source of truth for the paper's
mathematics.  The packet-level counterpart is the cross-layer agent in
:mod:`repro.core.protocol` (the ``opt`` preset).
"""

from __future__ import annotations

from typing import Optional

from repro.contact.policies import ContactPolicy, LazyXiEstimator
from repro.core.ftd import receiver_copy_ftd, sender_ftd_after_multicast
from repro.core.message import MessageCopy


class FadPolicy(ContactPolicy):
    """The paper's fault-tolerance-based forwarding at contact level."""

    def __init__(self, node_id: int, capacity: int = 200,
                 drop_threshold: float = 0.9, alpha: float = 0.3,
                 xi_timeout_s: float = 60.0, is_sink: bool = False) -> None:
        super().__init__(node_id, capacity, drop_threshold, is_sink)
        self.estimator = LazyXiEstimator(alpha, xi_timeout_s,
                                         initial_xi=1.0 if is_sink else 0.0)

    def metric(self, now: float) -> float:
        """Eq. 1 delivery probability (1.0 for sinks)."""
        if self.is_sink:
            return 1.0
        return self.estimator.xi(now)

    def steady_at(self, now: float) -> bool:
        """Steady until the next whole xi decay step (sinks: always)."""
        return self.is_sink or self.estimator.steady_at(now)

    def wants_to_send(self, peer: ContactPolicy,
                      now: float) -> Optional[MessageCopy]:
        """Offer the lowest-FTD message to a strictly better peer."""
        if self.is_sink:
            return None
        if not (peer.is_sink or peer.metric(now) > self.metric(now)):
            return None
        head = self.queue.peek()
        if head is None:
            return None
        if not peer.is_sink:
            if peer.queue.available_slots_for(head.ftd) <= 0:
                return None
        return head

    def incoming_copy(self, copy: MessageCopy, sender: ContactPolicy,
                      now: float) -> MessageCopy:
        """Assign the Eq. 2 FTD to the received copy."""
        sender_xi = sender.metric(now)
        ftd = receiver_copy_ftd(copy.ftd, sender_xi, [self.metric(now)], 0)
        return copy.forwarded(ftd, now)

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        """Apply Eq. 1 to xi and Eq. 3 to the local copy's FTD."""
        peer_xi = peer.metric(now)
        self.estimator.on_transmission(peer_xi, now)
        new_ftd = sender_ftd_after_multicast(copy.ftd, [peer_xi])
        self.queue.remove(copy.message_id)
        self.queue.reinsert_with_ftd(copy, new_ftd)
        self.transfers_out += 1
