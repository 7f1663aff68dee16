"""Direct transmission: sensors hold their data until they meet a sink.

The minimal-overhead extreme analyzed in the authors' earlier work [5]:
exactly one copy per message, no sensor-to-sensor relaying, so energy per
message is minimal but delay and loss are bounded only by the sensor's
own mobility.  Runs on the shared MAC; sensor receivers simply never
qualify, so only sinks ever answer a Direct sender's RTS.

Both simulation levels are implemented here: :class:`DirectAgent` on
the shared two-phase MAC, :class:`DirectPolicy` at contact granularity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.contact.policies import ContactPolicy
from repro.core.message import MessageCopy
from repro.core.protocol import MacAgent
from repro.core.selection import Candidate
from repro.radio.frames import DataFrame, Rts


class DirectAgent(MacAgent):
    """Source-to-sink-only delivery."""

    def advertised_metric(self) -> float:
        """Direct senders never advertise relaying ability."""
        return 0.0

    def evaluate_rts(self, rts: Rts) -> Tuple[bool, int]:
        """Sensors never relay for each other under direct transmission."""
        return False, 0

    def build_phi(self, head: MessageCopy,
                  candidates: Sequence[Candidate]) -> List[Candidate]:
        """Unicast to one sink; relays are never selected."""
        sinks = [c for c in candidates if c.is_sink]
        return sinks[:1]

    def copy_assignments(self, head: MessageCopy,
                         phi: Sequence[Candidate]) -> Dict[int, float]:
        """No FTD bookkeeping: the single copy stays maximally urgent."""
        return {c.node_id: 0.0 for c in phi}

    def on_data_accepted(self, frame: DataFrame, assigned_ftd: float) -> None:
        """Unreachable: direct sensors never qualify as receivers."""
        raise AssertionError("direct-transmission sensors never accept relays")

    def after_multicast(self, head: MessageCopy,
                        confirmed: Sequence[Candidate]) -> None:
        """Drop the copy once a sink acknowledged it; otherwise keep it."""
        if any(c.is_sink for c in confirmed):
            self.queue.remove(head.message_id)


class DirectPolicy(ContactPolicy):
    """Source-to-sink only (the low-overhead extreme of [5])."""

    def metric(self, now: float) -> float:
        """Sinks are certain; sensors advertise nothing."""
        return 1.0 if self.is_sink else 0.0

    def wants_to_send(self, peer: ContactPolicy,
                      now: float) -> Optional[MessageCopy]:
        """Only sink encounters trigger a transfer."""
        if self.is_sink or not peer.is_sink:
            return None
        return self.queue.peek()

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        """The single copy moved to the sink: forget it."""
        self.queue.remove(copy.message_id)
        self.transfers_out += 1
