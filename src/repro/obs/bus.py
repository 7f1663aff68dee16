"""The process-local telemetry event bus.

Publish/subscribe over the typed topics of :mod:`repro.obs.events`.
Subscribers are called synchronously, in subscription order (list, not
set — dispatch order is deterministic, which matters because simulation
logic such as the contact-level exchange handler can itself subscribe).

Instrumented layers never require a bus: they hold an optional
reference, and the disabled path is a single attribute ``is None``
check per instrumentation site.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List

from repro.obs.events import EVENT_TYPES, TelemetryEvent

Subscriber = Callable[[TelemetryEvent], None]

#: Wildcard topic: receive every event (used by trace exporters).
ALL_TOPICS = "*"

#: The closed set of topics the bus routes.
TOPICS: FrozenSet[str] = frozenset(cls.topic for cls in EVENT_TYPES)


class TelemetryBus:
    """Synchronous, deterministic publish/subscribe bus."""

    __slots__ = ("_topics", "_all", "events_emitted")

    def __init__(self) -> None:
        self._topics: Dict[str, List[Subscriber]] = {}
        self._all: List[Subscriber] = []
        #: Total events published (cheap health signal for tests/benches).
        self.events_emitted = 0

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------
    def subscribe(self, topic: str, subscriber: Subscriber) -> None:
        """Register ``subscriber`` for ``topic`` (or :data:`ALL_TOPICS`).

        Unknown topics are rejected: a typo would otherwise subscribe to
        a channel that never fires.
        """
        if topic == ALL_TOPICS:
            self._all.append(subscriber)
            return
        if topic not in TOPICS:
            raise ValueError(
                f"unknown telemetry topic {topic!r}; "
                f"choose from {sorted(TOPICS)} or {ALL_TOPICS!r}")
        self._topics.setdefault(topic, []).append(subscriber)

    def unsubscribe(self, topic: str, subscriber: Subscriber) -> None:
        """Remove one registration of ``subscriber`` from ``topic``."""
        if topic == ALL_TOPICS:
            self._all.remove(subscriber)
            return
        subs = self._topics.get(topic)
        if subs is None or subscriber not in subs:
            raise ValueError(f"subscriber not registered on {topic!r}")
        subs.remove(subscriber)

    def subscriber_count(self, topic: str) -> int:
        """Number of direct subscribers on ``topic`` (wildcards excluded)."""
        if topic == ALL_TOPICS:
            return len(self._all)
        return len(self._topics.get(topic, ()))

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    def emit(self, event: TelemetryEvent) -> None:
        """Deliver ``event`` to its topic's subscribers, then wildcards."""
        self.events_emitted += 1
        subs = self._topics.get(event.topic)
        if subs:
            for subscriber in subs:
                subscriber(event)
        for subscriber in self._all:
            subscriber(event)
