"""The process-local telemetry event bus.

Publish/subscribe over the typed topics of :mod:`repro.obs.events`.
Subscribers are called synchronously, in subscription order (a tuple,
not a set — dispatch order is deterministic, which matters because
simulation logic such as the contact-level exchange handler can itself
subscribe).

Instrumented layers never require a bus: they hold an optional
reference, and the disabled path is a single attribute ``is None``
check per instrumentation site.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Tuple

from repro.obs.events import EVENT_TYPES, TelemetryEvent

Subscriber = Callable[[TelemetryEvent], None]

#: Wildcard topic: receive every event (used by trace exporters).
ALL_TOPICS = "*"

#: The closed set of topics the bus routes.
TOPICS: FrozenSet[str] = frozenset(cls.topic for cls in EVENT_TYPES)


class TelemetryBus:
    """Synchronous, deterministic publish/subscribe bus.

    Each topic with subscribers has one dispatch tuple: its subscribers,
    then the wildcards.  Subscribing or unsubscribing rebuilds the tuples
    it touches, so ``emit`` does one lookup and one loop, and the
    subscribers of one dispatch are fixed when it starts: one added
    during a dispatch first receives the next event, and one removed
    during it does not make another miss the current one.
    """

    __slots__ = ("_topics", "_all", "_dispatch", "events_emitted")

    def __init__(self) -> None:
        self._topics: Dict[str, Tuple[Subscriber, ...]] = {}
        self._all: Tuple[Subscriber, ...] = ()
        #: Per topic: its subscribers, then the wildcards.
        self._dispatch: Dict[str, Tuple[Subscriber, ...]] = {}
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
            self._all += (subscriber,)
        elif topic in TOPICS:
            self._topics[topic] = self._topics.get(topic, ()) + (subscriber,)
        else:
            raise ValueError(
                f"unknown telemetry topic {topic!r}; "
                f"choose from {sorted(TOPICS)} or {ALL_TOPICS!r}")
        self._rebuild(topic)

    def unsubscribe(self, topic: str, subscriber: Subscriber) -> None:
        """Remove one registration of ``subscriber`` from ``topic``."""
        subs = list(self._all if topic == ALL_TOPICS
                    else self._topics.get(topic, ()))
        if subscriber not in subs:
            raise ValueError(f"subscriber not registered on {topic!r}")
        subs.remove(subscriber)
        if topic == ALL_TOPICS:
            self._all = tuple(subs)
        else:
            self._topics[topic] = tuple(subs)
        self._rebuild(topic)

    def _rebuild(self, topic: str) -> None:
        """Refresh ``topic``'s dispatch tuple; every one for a wildcard."""
        for name in self._topics if topic == ALL_TOPICS else (topic,):
            self._dispatch[name] = self._topics[name] + self._all

    def subscriber_count(self, topic: str) -> int:
        """Number of direct subscribers on ``topic`` (wildcards excluded)."""
        if topic == ALL_TOPICS:
            return len(self._all)
        return len(self._topics.get(topic, ()))

    def routes(self, topic: str) -> bool:
        """Whether an event on ``topic`` would reach any subscriber.

        Emit sites whose events nobody reads test this first and skip
        building the event; a wildcard subscriber routes every topic.
        """
        return bool(self._dispatch.get(topic, self._all))

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    def emit(self, event: TelemetryEvent) -> None:
        """Deliver ``event`` to its topic's subscribers, then wildcards."""
        self.events_emitted += 1
        for subscriber in self._dispatch.get(event.topic, self._all):
            subscriber(event)
