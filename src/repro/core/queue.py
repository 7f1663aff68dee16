"""The FTD-sorted data queue (Sec. 3.1.2).

Messages are kept in ascending FTD order: the smallest-FTD (most
important) message sits at the head and is transmitted first.  A message
is dropped (a) from the tail when an insertion overflows the capacity, or
(b) immediately when its FTD exceeds the drop threshold — including a
copy just confirmed at a sink, whose FTD is 1.

Ties on FTD preserve insertion order (FIFO among equals), which keeps
behaviour deterministic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.message import MessageCopy
from repro.obs.bus import TelemetryBus
from repro.obs.events import QueueDrop


@dataclass
class QueueStats:
    """Counters of queue-management outcomes.

    Together they form a conservation ledger the invariant checker
    (:mod:`repro.checks.invariants`) audits: the live occupancy always
    equals ``inserted + reinserted - popped - removed_delivered -
    drops_overflow - purged`` (threshold drops and duplicate merges
    never change occupancy).
    """

    inserted: int = 0
    reinserted: int = 0
    popped: int = 0
    drops_overflow: int = 0
    drops_threshold: int = 0
    duplicates_merged: int = 0
    removed_delivered: int = 0
    purged: int = 0


class FtdQueue:
    """Bounded priority queue ordered by ascending FTD."""

    def __init__(self, capacity: int, drop_threshold: float = 0.9) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if not 0.0 < drop_threshold <= 1.0:
            raise ValueError("drop threshold must be in (0, 1]")
        self.capacity = capacity
        self.drop_threshold = drop_threshold
        self._keys: List[Tuple[float, int]] = []  # (ftd, seq) sort keys
        self._copies: List[MessageCopy] = []
        # message id -> its (ftd, seq) key; ids are unique in a buffer
        self._index: Dict[int, Tuple[float, int]] = {}
        self._seq = 0
        self.stats = QueueStats()
        self._bus: Optional[TelemetryBus] = None
        self._node_id = -1
        self._now: Callable[[], float] = lambda: 0.0

    def bind_telemetry(self, bus: TelemetryBus, node_id: int,
                       now: Callable[[], float]) -> None:
        """Emit :class:`QueueDrop` events on ``bus`` from now on.

        The queue has no clock of its own, so the owner supplies the
        simulated-time callable ``now``.
        """
        self._bus = bus
        self._node_id = node_id
        self._now = now

    def _emit_drop(self, copy: MessageCopy, cause: str) -> None:
        bus = self._bus
        if bus is not None:
            bus.emit(QueueDrop(
                time=self._now(), node=self._node_id,
                message_id=copy.message_id, cause=cause, ftd=copy.ftd))

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._copies)

    def __iter__(self) -> Iterator[MessageCopy]:
        return iter(list(self._copies))

    def __contains__(self, message_id: int) -> bool:
        return message_id in self._index

    @property
    def free_slots(self) -> int:
        """Unoccupied buffer slots."""
        return self.capacity - len(self._copies)

    # ------------------------------------------------------------------
    # insertion / removal
    # ------------------------------------------------------------------
    def insert(self, copy: MessageCopy) -> bool:
        """Insert ``copy`` per the Sec. 3.1.2 rules; True iff it was kept.

        Over-threshold copies are rejected outright.  A duplicate of a
        message already queued is merged by keeping the smaller FTD (the
        more conservative estimate).  On overflow the largest-FTD entry —
        possibly the incoming copy itself — is dropped.
        """
        if copy.ftd >= self.drop_threshold:
            self.stats.drops_threshold += 1
            self._emit_drop(copy, "threshold")
            return False

        existing = self._find(copy.message_id)
        if existing is not None:
            self.stats.duplicates_merged += 1
            if copy.ftd < self._copies[existing].ftd:
                old = self._pop_index(existing)
                merged = MessageCopy(
                    old.message, ftd=copy.ftd,
                    hops=min(old.hops, copy.hops),
                    received_at=old.received_at,
                )
                self._insort(merged)
            return True

        self._insort(copy)
        self.stats.inserted += 1
        if len(self._copies) > self.capacity:
            dropped = self._pop_index(len(self._copies) - 1)
            self.stats.drops_overflow += 1
            self._emit_drop(dropped, "overflow")
            # The incoming copy may itself have been the tail just dropped.
            return copy.message_id in self._index
        return True

    def peek(self) -> Optional[MessageCopy]:
        """The most important (smallest FTD) message, or None when empty."""
        return self._copies[0] if self._copies else None

    def pop(self) -> MessageCopy:
        """Remove and return the head (smallest FTD)."""
        if not self._copies:
            raise IndexError("pop from empty queue")
        self.stats.popped += 1
        return self._pop_index(0)

    def remove(self, message_id: int) -> Optional[MessageCopy]:
        """Remove a message by id (e.g. once confirmed at a sink)."""
        idx = self._find(message_id)
        if idx is None:
            return None
        self.stats.removed_delivered += 1
        return self._pop_index(idx)

    def reinsert_with_ftd(self, copy: MessageCopy, new_ftd: float) -> bool:
        """Put a popped head back with an updated FTD (post-multicast).

        Applies the threshold-drop rule: a copy pushed past the drop
        threshold by Eq. (3) is discarded (Sec. 3.1.2).  The caller must
        have popped or removed the copy first: a message id already
        buffered raises ``ValueError`` (a buffer holds one copy per id).
        """
        if copy.message_id in self._index:
            raise ValueError(
                f"message {copy.message_id} is already buffered")
        updated = MessageCopy(copy.message, ftd=min(1.0, new_ftd),
                              hops=copy.hops, received_at=copy.received_at)
        if updated.ftd >= self.drop_threshold:
            self.stats.drops_threshold += 1
            self._emit_drop(updated, "threshold")
            return False
        self._insort(updated)
        self.stats.reinserted += 1
        if len(self._copies) > self.capacity:
            dropped = self._pop_index(len(self._copies) - 1)
            self.stats.drops_overflow += 1
            self._emit_drop(dropped, "overflow")
            return updated.message_id in self._index
        return True

    def purge(self) -> int:
        """Drop every buffered copy (volatile memory lost on a reboot).

        Returns the number of copies purged.  Each purge is tallied in
        ``stats.purged`` (its own ledger column) and emitted as a
        ``queue.drop`` event with cause ``"purge"``.
        """
        purged = len(self._copies)
        for copy in self._copies:
            self._emit_drop(copy, "purge")
        self.stats.purged += purged
        self._copies.clear()
        self._keys.clear()
        self._index.clear()
        return purged

    def sort_keys(self) -> List[Tuple[float, int]]:
        """Snapshot of the ascending ``(ftd, seq)`` sort-key index.

        Exposed for the invariant checker and the property-based tests;
        the list is a copy, safe to inspect while the queue mutates.
        """
        return list(self._keys)

    def message_ids(self) -> Dict[int, Tuple[float, int]]:
        """Snapshot of the message-id index: each buffered id mapped to
        its ``(ftd, seq)`` sort key.

        Exposed for the invariant checker, like :meth:`sort_keys`.
        """
        return dict(self._index)

    # ------------------------------------------------------------------
    # queries used by the protocol
    # ------------------------------------------------------------------
    def available_slots_for(self, ftd: float) -> int:
        """``B(F)`` of Sec. 3.2.2: free slots plus slots held by messages
        with FTD strictly greater than ``ftd`` (which an incoming more
        important message could displace)."""
        # Free slots plus the displaceable tail is the capacity minus the
        # copies with FTD <= ftd.  Sequence numbers are finite, so
        # (ftd, inf) sorts after every key with this FTD.
        kept = bisect.bisect_right(self._keys, (ftd, math.inf))
        return self.capacity - kept

    def count_more_important_than(self, ftd_bound: float) -> int:
        """``K_F`` of Eq. (5): messages with FTD smaller than ``ftd_bound``."""
        return bisect.bisect_left(self._keys, (ftd_bound, -math.inf))

    def importance_fraction(self, ftd_bound: float) -> float:
        """Eq. (5): ``alpha_i = K_F / K`` over the *capacity* K."""
        return self.count_more_important_than(ftd_bound) / self.capacity

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _find(self, message_id: int) -> Optional[int]:
        key = self._index.get(message_id)
        if key is None:
            return None
        # Sequence numbers make every key unique, so this is its slot.
        return bisect.bisect_left(self._keys, key)

    def _insort(self, copy: MessageCopy) -> None:
        key = (copy.ftd, self._seq)
        self._seq += 1
        idx = bisect.bisect_left(self._keys, key)
        self._keys.insert(idx, key)
        self._copies.insert(idx, copy)
        self._index[copy.message_id] = key

    def _pop_index(self, idx: int) -> MessageCopy:
        self._keys.pop(idx)
        copy = self._copies.pop(idx)
        del self._index[copy.message_id]
        return copy
