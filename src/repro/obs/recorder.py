"""Trace recording: frame-level event capture with bounded memory.

:class:`TraceRecorder` is a telemetry-bus subscriber: it listens on the
``frame.tx`` / ``frame.rx`` / ``frame.collision`` topics and keeps a
bounded in-memory ring of those bus events with the query helpers the
protocol-inspection tooling builds on.  The report helpers
below summarize a message's journey ("message 17: origin 42 -> relay 61
-> sink 1"), per-node activity, and channel occupancy.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from enum import Enum
from typing import (Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple,
                    Union)

from repro.obs.bus import TelemetryBus
from repro.obs.events import (
    FrameCollision,
    FrameRx,
    FrameTx,
    TelemetryEvent,
)

#: The bus events a :class:`TraceRecorder` keeps.
FrameEvent = Union[FrameTx, FrameRx, FrameCollision]

#: Bus topic -> single-word event kind (``tx`` / ``rx`` / ``col``).
_KIND_BY_TOPIC = {
    FrameTx.topic: "tx",
    FrameRx.topic: "rx",
    FrameCollision.topic: "col",
}


class TraceRecorder:
    """Records the frame events published on a telemetry bus.

    ``max_events`` bounds memory: older events are discarded first (the
    recorder is a flight recorder, not an archive).  Filters: pass
    ``frame_kinds`` (``FrameKind`` members) to record only some frame
    types (e.g. only DATA).  Construction subscribes immediately::

        recorder = TraceRecorder(bus=sim.enable_telemetry())
    """

    def __init__(
        self,
        *,
        bus: TelemetryBus,
        max_events: int = 100_000,
        frame_kinds: Optional[Iterable[Enum]] = None,
    ) -> None:
        if max_events < 1:
            raise ValueError("need room for at least one event")
        self.events: Deque[FrameEvent] = deque(maxlen=max_events)
        # Events carry the kind's string value; matching on ``.value``
        # keeps this module free of radio imports (tests/test_layering.py).
        self._kinds: Optional[FrozenSet[str]] = (
            frozenset(k.value for k in frame_kinds) if frame_kinds else None)
        bus.subscribe(FrameTx.topic, self._on_frame_event)
        bus.subscribe(FrameRx.topic, self._on_frame_event)
        bus.subscribe(FrameCollision.topic, self._on_frame_event)

    def _on_frame_event(self, event: TelemetryEvent) -> None:
        assert isinstance(event, (FrameTx, FrameRx, FrameCollision))
        if self._kinds is not None and event.frame_kind not in self._kinds:
            return
        self.events.append(event)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> List[FrameEvent]:
        """Events of one kind ('tx' / 'rx' / 'col')."""
        return [e for e in self.events if _KIND_BY_TOPIC[e.topic] == kind]

    def for_message(self, message_id: int) -> List[FrameEvent]:
        """Events carrying a given message id."""
        return [e for e in self.events if e.message_id == message_id]

    def for_node(self, node_id: int) -> List[FrameEvent]:
        """Events observed at a given node."""
        return [e for e in self.events if e.node == node_id]

    def __len__(self) -> int:
        return len(self.events)


def message_journey(recorder: TraceRecorder, message_id: int) -> str:
    """The hop-by-hop story of one message's DATA transfers."""
    events = [e for e in recorder.for_message(message_id)
              if e.frame_kind == "data"]
    if not events:
        return f"message {message_id}: no recorded DATA activity"
    lines = [f"message {message_id}:"]
    for e in events:
        if isinstance(e, FrameTx):
            lines.append(f"  {e.time:9.2f}s  node {e.src} multicasts")
        elif isinstance(e, FrameRx):
            lines.append(f"  {e.time:9.2f}s  node {e.node} receives "
                         f"(from {e.src})")
        else:
            lines.append(f"  {e.time:9.2f}s  corrupted at node {e.node}")
    return "\n".join(lines)


def node_activity(recorder: TraceRecorder, top: int = 10) -> str:
    """Busiest transmitters / receivers (frame counts by node)."""
    tx = Counter(e.node for e in recorder.of_kind("tx"))
    rx = Counter(e.node for e in recorder.of_kind("rx"))
    lines = ["busiest transmitters:"]
    for node, count in tx.most_common(top):
        lines.append(f"  node {node:<4} {count} frames sent")
    lines.append("busiest receivers:")
    for node, count in rx.most_common(top):
        lines.append(f"  node {node:<4} {count} frames decoded")
    return "\n".join(lines)


def channel_usage(recorder: TraceRecorder) -> Dict[str, int]:
    """Frame counts by (event kind, frame kind)."""
    usage: Dict[str, int] = defaultdict(int)
    for e in recorder.events:
        usage[f"{_KIND_BY_TOPIC[e.topic]}:{e.frame_kind}"] += 1
    return dict(usage)


def collision_hotspots(recorder: TraceRecorder,
                       top: int = 10) -> List[Tuple[int, int]]:
    """Receivers that see the most corrupted frames."""
    hot = Counter(e.node for e in recorder.of_kind("col"))
    return hot.most_common(top)
