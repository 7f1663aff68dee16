"""Typed telemetry events — one frozen dataclass per bus topic.

Every event carries its simulated-time ``time`` stamp plus topic-specific
payload fields; the class-level ``topic`` string is the bus routing key.
Events are plain data (ints, floats, strings, ``None``) so that a trace
line survives a JSON round trip losslessly.

This module is the one place the event schema is spelled out:
:data:`EVENT_TYPES` lists the concrete classes, and the bus topics, the
CSV columns and cell types, and :func:`event_from_dict` all derive from
it and the field annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type


@dataclass(frozen=True)
class TelemetryEvent:
    """Base class of all bus events."""

    #: Bus routing key; overridden per concrete event type.
    topic: ClassVar[str] = ""

    time: float


# ----------------------------------------------------------------------
# radio / channel layer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrameTx(TelemetryEvent):
    """A frame started transmitting (one event per channel use)."""

    topic: ClassVar[str] = "frame.tx"

    node: int
    frame_kind: str
    src: int
    dst: Optional[int]
    message_id: Optional[int]
    bits: int


@dataclass(frozen=True)
class FrameRx(TelemetryEvent):
    """A frame was decoded at a receiver (one event per receiver)."""

    topic: ClassVar[str] = "frame.rx"

    node: int
    frame_kind: str
    src: int
    dst: Optional[int]
    message_id: Optional[int]


@dataclass(frozen=True)
class FrameCollision(TelemetryEvent):
    """An audible frame was corrupted at a receiver."""

    topic: ClassVar[str] = "frame.collision"

    node: int
    frame_kind: str
    src: int
    dst: Optional[int]
    message_id: Optional[int]


@dataclass(frozen=True)
class RadioSleep(TelemetryEvent):
    """A radio entered the sleeping state.

    ``lpl`` marks the cheap low-power-listening resume (no full radio
    off sequence).
    """

    topic: ClassVar[str] = "radio.sleep"

    node: int
    lpl: bool


@dataclass(frozen=True)
class RadioWake(TelemetryEvent):
    """A radio left the sleeping state; ``slept_s`` is the interval."""

    topic: ClassVar[str] = "radio.wake"

    node: int
    slept_s: float
    lpl: bool


# ----------------------------------------------------------------------
# contact layer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ContactStart(TelemetryEvent):
    """Nodes ``a < b`` came within communication range."""

    topic: ClassVar[str] = "contact.start"

    a: int
    b: int


@dataclass(frozen=True)
class ContactEnd(TelemetryEvent):
    """Nodes ``a < b`` left range; the contact spanned [started, time]."""

    topic: ClassVar[str] = "contact.end"

    a: int
    b: int
    started: float

    @property
    def duration(self) -> float:
        """Seconds the pair stayed within range."""
        return self.time - self.started


# ----------------------------------------------------------------------
# queue layer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueueDrop(TelemetryEvent):
    """A message copy was dropped from a node's queue.

    ``cause`` is ``"overflow"`` (capacity eviction), ``"threshold"``
    (FTD past the drop threshold, Sec. 3.1.2) or ``"purge"`` (volatile
    buffer lost across a fault-injected reboot).
    """

    topic: ClassVar[str] = "queue.drop"

    node: int
    message_id: int
    cause: str
    ftd: float


# ----------------------------------------------------------------------
# protocol phases (spans)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseEnter(TelemetryEvent):
    """A node entered a protocol phase (``async`` / ``sync`` )."""

    topic: ClassVar[str] = "phase.enter"

    node: int
    phase: str


@dataclass(frozen=True)
class PhaseExit(TelemetryEvent):
    """A node left a protocol phase after ``duration_s`` simulated
    seconds; ``outcome`` names how the phase ended (e.g. ``advance``,
    ``busy``, ``failed``, ``confirmed``, ``no_acks``, ``interrupted``).
    """

    topic: ClassVar[str] = "phase.exit"

    node: int
    phase: str
    duration_s: float
    outcome: str


# ----------------------------------------------------------------------
# fault layer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultInject(TelemetryEvent):
    """A fault model struck.

    ``node`` is the affected node id, or ``None`` for a network-wide
    fault (e.g. channel-level radio impairment).  ``model`` names the
    fault model (``deaths``, ``outages``, ``radio``, ``sink_outage``)
    and ``detail`` the concrete effect (``death``, ``outage``,
    ``impairment_on``, ...).
    """

    topic: ClassVar[str] = "fault.inject"

    node: Optional[int]
    model: str
    detail: str


@dataclass(frozen=True)
class FaultRecover(TelemetryEvent):
    """A previously injected fault healed (transient models only).

    ``down_s`` is how long the fault was in effect.
    """

    topic: ClassVar[str] = "fault.recover"

    node: Optional[int]
    model: str
    down_s: float


# ----------------------------------------------------------------------
# delivery layer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MessageGenerated(TelemetryEvent):
    """A sensor generated a fresh data message."""

    topic: ClassVar[str] = "message.generated"

    node: int
    message_id: int


@dataclass(frozen=True)
class MessageDelivered(TelemetryEvent):
    """A message first reached a sink (deduplicated by message id)."""

    topic: ClassVar[str] = "message.delivered"

    node: int  # the sink
    message_id: int
    origin: int
    delay_s: float
    hops: int


#: Every concrete event class, in trace CSV column order.
EVENT_TYPES: Tuple[Type[TelemetryEvent], ...] = (
    FrameTx, FrameRx, FrameCollision, RadioSleep, RadioWake,
    ContactStart, ContactEnd, FaultInject, FaultRecover,
    QueueDrop, PhaseEnter, PhaseExit,
    MessageGenerated, MessageDelivered,
)

_TYPE_BY_TOPIC: Dict[str, Type[TelemetryEvent]] = {
    cls.topic: cls for cls in EVENT_TYPES}


def event_type(topic: object) -> Type[TelemetryEvent]:
    """The event class routed on ``topic``; ``ValueError`` if none is."""
    cls = _TYPE_BY_TOPIC.get(topic) if isinstance(topic, str) else None
    if cls is None:
        raise ValueError(f"unknown telemetry topic {topic!r}")
    return cls


def event_to_dict(event: TelemetryEvent) -> Dict[str, object]:
    """Flat plain-data view of an event: ``topic`` plus its fields."""
    out: Dict[str, object] = {"topic": event.topic}
    out.update(event.__dict__)
    return out


def event_from_dict(data: Mapping[str, Any]) -> TelemetryEvent:
    """Inverse of :func:`event_to_dict`: the event ``data`` describes.

    The class is looked up by ``topic``; a field ``data`` lacks (such as
    an empty CSV cell) reads as ``None``.
    """
    cls = event_type(data.get("topic"))
    return cls(**{field.name: data.get(field.name) for field in fields(cls)})
