"""Contact detection over a mobility model.

A *contact* is a maximal interval during which two nodes are within
communication range.  The tracer advances mobility on a fixed tick and
emits contact start/end events; it can run standalone (producing a
contact trace for analysis) or drive the contact-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.mobility.manager import MobilityManager
from repro.obs.bus import TelemetryBus
from repro.obs.events import ContactEnd, ContactStart


@dataclass(frozen=True)
class Contact:
    """One completed contact between nodes ``a`` and ``b``."""

    a: int
    b: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Seconds the pair stayed within range."""
        return self.end - self.start

    def involves(self, node_id: int) -> bool:
        """Whether ``node_id`` is one of the contact's endpoints."""
        return node_id in (self.a, self.b)


class ContactTracer:
    """Walks mobility forward and reports contact starts/ends.

    Events reach listeners through :meth:`subscribe`, which publishes
    :class:`~repro.obs.events.ContactStart` / ``ContactEnd`` on a
    telemetry bus.  :meth:`run` returns the list of completed contacts
    (open contacts are closed at the horizon).
    """

    def __init__(self, mobility: MobilityManager) -> None:
        self._mobility = mobility
        self._bus: Optional[TelemetryBus] = None
        # Open contacts keyed by the (a, b) pair with a < b, and the same
        # pairs as the manager's sorted pair codes (last scan's answer).
        self._active: Dict[Tuple[int, int], float] = {}
        self._codes = np.zeros(0, dtype=np.int64)
        self.contacts: List[Contact] = []

    def subscribe(self, bus: TelemetryBus) -> None:
        """Publish contact start/end events on ``bus`` from now on."""
        self._bus = bus

    @property
    def active_pairs(self) -> Set[FrozenSet[int]]:
        """Pairs currently within range (open contacts)."""
        return {frozenset(pair) for pair in self._active}

    def scan(self, now: float) -> None:
        """Compare the current in-range pairs against the active set.

        One :meth:`~repro.mobility.manager.MobilityManager.pairs_in_range`
        query per tick; the starts and ends are two sorted differences
        against the previous tick's codes, so only the pairs that changed
        reach Python.  Starts are processed before ends, each in sorted
        pair order: the events feed the contact-level simulator's
        scheduling.  A ``ContactStart`` is built only when the bus routes
        it (a bare contact-level run reads only the ends); a
        ``ContactEnd`` always is, since the simulator's exchange takes it.
        """
        codes = self._mobility.pairs_in_range()
        previous = self._codes
        self._codes = codes
        ids = self._mobility.node_ids
        n = len(ids)
        bus = self._bus
        for code in _missing_from(codes, previous).tolist():
            a, b = ids[code // n], ids[code % n]
            self._active[(a, b)] = now
            if bus is not None and bus.routes(ContactStart.topic):
                bus.emit(ContactStart(time=now, a=a, b=b))
        for code in _missing_from(previous, codes).tolist():
            a, b = ids[code // n], ids[code % n]
            started = self._active.pop((a, b))
            self.contacts.append(Contact(a, b, started, now))
            if bus is not None:
                bus.emit(ContactEnd(time=now, a=a, b=b, started=started))

    def run(self, duration: float, tick: float = 1.0) -> List[Contact]:
        """Advance mobility to ``duration`` and return completed contacts."""
        if duration <= 0 or tick <= 0:
            raise ValueError("duration and tick must be positive")
        self.scan(0.0)
        for now, dt in tick_times(duration, tick):
            self._mobility.step(dt)
            self.scan(now)
        self.close(duration)
        return self.contacts

    def close(self, now: float) -> None:
        """Close any still-open contacts at time ``now``."""
        bus = self._bus
        for pair, started in sorted(self._active.items()):
            a, b = pair
            self.contacts.append(Contact(a, b, started, now))
            if bus is not None:
                bus.emit(ContactEnd(time=now, a=a, b=b, started=started))
        self._active.clear()
        self._codes = np.zeros(0, dtype=np.int64)


def _missing_from(codes: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The entries of sorted ``codes`` that sorted ``other`` lacks.

    One binary search per entry; ``np.setdiff1d`` re-sorts both arrays
    and costs about twice as much at contact-level sizes.
    """
    if not other.size:
        return codes
    at = np.minimum(np.searchsorted(other, codes), other.size - 1)
    return codes[other[at] != codes]


def tick_times(duration: float,
               tick: float) -> Iterator[Tuple[float, float]]:
    """``(instant, step)`` of each tick after 0, up to ``duration``.

    Tick ``k`` falls at ``min(k * tick, duration)``: derived from the
    count, not accumulated, so no rounding residue adds a sliver tick
    (``duration=1.0, tick=0.1`` is exactly 10 ticks, the last at 1.0).
    """
    k, last = 1, 0.0
    while True:
        now = min(k * tick, duration)
        yield now, now - last
        if now >= duration:
            return
        k, last = k + 1, now


def contact_statistics(contacts: List[Contact]) -> Dict[str, float]:
    """Aggregate statistics of a contact trace (for workload reports)."""
    if not contacts:
        return {"count": 0, "mean_duration_s": float("nan"),
                "total_contact_s": 0.0}
    durations = [c.duration for c in contacts]
    return {
        "count": float(len(contacts)),
        "mean_duration_s": sum(durations) / len(durations),
        "total_contact_s": sum(durations),
    }
