"""Application data messages and the per-node copies that carry an FTD.

A :class:`DataMessage` is immutable and identical across the network; a
:class:`MessageCopy` is one node's replica, carrying that node's FTD for
the message (Sec. 3.1.2) plus bookkeeping used by the metrics layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator


_message_ids: Iterator[int] = itertools.count()


def fresh_message_id() -> int:
    """Process-wide unique message id, for messages built by hand.

    Simulations number their own messages from a per-run counter.
    """
    return next(_message_ids)


@dataclass(frozen=True)
class DataMessage:
    """An immutable sensed-data message.

    ``origin`` is the generating sensor's node id; ``created_at`` the
    simulation time of sensing; ``size_bits`` the on-air payload size
    (1000 bits in the paper's setup).
    """

    message_id: int
    origin: int
    created_at: float
    size_bits: int = 1000

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError("message size must be positive")


class MessageCopy:
    """One node's copy of a message, with its fault tolerance degree.

    ``ftd`` is the probability that at least one *other* copy reaches a
    sink (Sec. 3.1.2): 0 for a freshly sensed message (most important),
    approaching 1 as the message spreads.  ``hops`` counts transfers from
    the origin to this copy (metrics only).
    """

    __slots__ = ("message", "ftd", "hops", "received_at")

    def __init__(
        self,
        message: DataMessage,
        ftd: float = 0.0,
        hops: int = 0,
        received_at: float = 0.0,
    ) -> None:
        if not 0.0 <= ftd <= 1.0:
            raise ValueError(f"FTD must be in [0, 1], got {ftd!r}")
        if hops < 0:
            raise ValueError("hop count cannot be negative")
        self.message = message
        self.ftd = float(ftd)
        self.hops = int(hops)
        self.received_at = float(received_at)

    @property
    def message_id(self) -> int:
        """Id of the underlying message."""
        return self.message.message_id

    def forwarded(self, ftd: float, received_at: float) -> "MessageCopy":
        """The copy a receiver holds after one transfer."""
        return MessageCopy(self.message, ftd=ftd, hops=self.hops + 1,
                           received_at=received_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageCopy(id={self.message_id}, ftd={self.ftd:.3f}, "
            f"hops={self.hops})"
        )
