"""ZBR: the ZebraNet history-based forwarding scheme [12].

As described in the paper (Sec. 2 and Sec. 5): each node tracks its past
success rate of transmitting data packets *directly to a base station*;
on meeting another node, it hands its messages over iff the other node
has a strictly higher success rate.  ZBR differs from OPT "only in the
message transmission scheme" — it runs on the same optimized MAC, but
forwards a single copy (custody transfer) instead of the FTD-controlled
multicast.

Two documented weaknesses reproduce the paper's Fig. 2 behaviour:
nodes whose mobility never takes them near a sink keep a zero success
rate (traffic originating deep in the field has no gradient to follow),
and — because :class:`ZbrAgent`'s metric is a plain history with *no
time decay*, unlike Eq. 1's xi — stale former couriers keep attracting
custody long after their mobility changed.

Both simulation levels are implemented here: :class:`ZbrAgent` on the
shared two-phase MAC, :class:`ZbrHistoryPolicy` at contact granularity.
The two histories differ.  :class:`ZbrHistoryPolicy` keeps its history
in a :class:`~repro.contact.policies.LazyXiEstimator` (gain 0.3, 60 s
timeout), so between direct sink transfers it decays exactly as Eq. 1's
xi does.  Making the levels agree is a rule change: it moves the seeded
contact-level ``zbr`` results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.contact.policies import ContactPolicy, LazyXiEstimator
from repro.core.message import MessageCopy
from repro.core.protocol import MacAgent
from repro.core.selection import Candidate
from repro.radio.frames import DataFrame, Rts


class ZbrAgent(MacAgent):
    """History-based single-copy forwarding on the shared MAC."""

    #: EWMA weight of one direct sink contact in the history metric.
    HISTORY_GAIN = 0.3

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._rate = 0.0

    @property
    def success_rate(self) -> float:
        """The ZebraNet direct-to-sink success history (never decays)."""
        return self._rate

    def advertised_metric(self) -> float:
        """ZBR advertises its sink-contact history instead of xi."""
        return self._rate

    def record_direct_sink_success(self) -> float:
        """Fold one successful direct sink transfer into the history."""
        self._rate = ((1.0 - self.HISTORY_GAIN) * self._rate
                      + self.HISTORY_GAIN)
        return self._rate

    def evaluate_rts(self, rts: Rts) -> Tuple[bool, int]:
        """Qualify on strictly higher history and a free buffer slot."""
        if rts.message_id in self.queue:
            return False, 0  # duplicate custody is meaningless
        slots = self.queue.free_slots
        return (self._rate > rts.xi and slots > 0), slots

    def build_phi(self, head: MessageCopy,
                  candidates: Sequence[Candidate]) -> List[Candidate]:
        """Pick a single receiver: a sink if present, else best history."""
        qualified = [c for c in candidates
                     if c.is_sink or c.xi > self._rate]
        if not qualified:
            return []
        best = max(qualified, key=lambda c: (c.is_sink, c.xi, -c.node_id))
        return [best]

    def copy_assignments(self, head: MessageCopy,
                         phi: Sequence[Candidate]) -> Dict[int, float]:
        """No FTD notion: the custody copy stays maximally urgent."""
        return {c.node_id: 0.0 for c in phi}

    def on_data_accepted(self, frame: DataFrame, assigned_ftd: float) -> None:
        """Take custody of the forwarded message."""
        copy: MessageCopy = frame.payload
        self.queue.insert(copy.forwarded(0.0, self.scheduler.now))

    def after_multicast(self, head: MessageCopy,
                        confirmed: Sequence[Candidate]) -> None:
        """Release custody; a direct sink transfer raises the history."""
        if not confirmed:
            return
        # Custody transfer: exactly one copy lives on, at the receiver.
        self.queue.remove(head.message_id)
        if any(c.is_sink for c in confirmed):
            # Only a *direct* sink transfer raises the (non-decaying)
            # history metric.
            self.record_direct_sink_success()


class ZbrHistoryPolicy(ContactPolicy):
    """ZebraNet: single-copy custody to strictly better sink history.

    Unlike :class:`ZbrAgent`'s, this history decays: it is an Eq. 1
    estimator, stepped down by ``1 - alpha`` for every ``xi_timeout_s``
    without a direct sink transfer.
    """

    def __init__(self, node_id: int, capacity: int = 200, alpha: float = 0.3,
                 xi_timeout_s: float = 60.0, is_sink: bool = False) -> None:
        super().__init__(node_id, capacity, 1.0, is_sink)
        self.history = LazyXiEstimator(alpha, xi_timeout_s,
                                       initial_xi=1.0 if is_sink else 0.0)

    def metric(self, now: float) -> float:
        """Direct-to-sink success history (1.0 for sinks)."""
        if self.is_sink:
            return 1.0
        return self.history.xi(now)

    def wants_to_send(self, peer: ContactPolicy,
                      now: float) -> Optional[MessageCopy]:
        """Custody transfer toward a strictly better history."""
        if self.is_sink:
            return None
        if not (peer.is_sink or peer.metric(now) > self.metric(now)):
            return None
        if not peer.is_sink and peer.queue.free_slots <= 0:
            return None
        return self.queue.peek()

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        """Release custody; direct sink contact raises the history."""
        self.queue.remove(copy.message_id)
        self.transfers_out += 1
        if peer.is_sink:
            self.history.on_transmission(1.0, now)
