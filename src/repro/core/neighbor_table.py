"""Soft-state neighbor table (Sec. 3.2.1).

Built from the CTS packets a sender collects (and from overheard RTS/CTS
traffic), the table carries each known neighbor's delivery probability
and last advertised buffer space.  Entries expire after a TTL — in a
mobile network stale contacts are worse than no information.  The table
feeds the two Sec. 4 parameter optimizations: the cell population for the
``tau_max`` search and the expected responder count for the ``W`` search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List


@dataclass
class NeighborEntry:
    """What a node knows about one neighbor."""

    node_id: int
    xi: float
    buffer_slots: int
    last_seen: float
    is_sink: bool = False


class NeighborTable:
    """Bounded, TTL-expired view of recently heard neighbors."""

    def __init__(self, ttl_s: float, max_entries: int = 64) -> None:
        if ttl_s <= 0:
            raise ValueError("TTL must be positive")
        if max_entries < 1:
            raise ValueError("need room for at least one entry")
        self.ttl_s = ttl_s
        self.max_entries = max_entries
        self._entries: Dict[int, NeighborEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def observe(
        self,
        node_id: int,
        xi: float,
        now: float,
        buffer_slots: int = 0,
        is_sink: bool = False,
    ) -> None:
        """Record (or refresh) a neighbor heard at time ``now``."""
        if not 0.0 <= xi <= 1.0:
            raise ValueError("xi must be in [0, 1]")
        self._entries[node_id] = NeighborEntry(
            node_id, xi, buffer_slots, now, is_sink
        )
        if len(self._entries) > self.max_entries:
            oldest = min(self._entries.values(), key=lambda e: e.last_seen)
            del self._entries[oldest.node_id]

    def expire(self, now: float) -> None:
        """Drop entries not refreshed within the TTL."""
        cutoff = now - self.ttl_s
        stale = [nid for nid, e in self._entries.items() if e.last_seen < cutoff]
        for nid in stale:
            del self._entries[nid]

    def entries(self, now: float) -> List[NeighborEntry]:
        """Live entries (expires as a side effect); their ``xi`` values
        are the cell population of the Eq. 13 ``tau_max`` search."""
        self.expire(now)
        return list(self._entries.values())


def expected_responders(entries: Iterable[NeighborEntry],
                        own_xi: float) -> int:
    """Estimated qualified-receiver count for the Eq. 14 ``W`` search:
    neighbors among ``entries`` advertising a strictly higher ``xi``."""
    return sum(1 for e in entries if e.xi > own_xi)
