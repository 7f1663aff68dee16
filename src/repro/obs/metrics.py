"""Metrics registry: counters, gauges and histograms fed by the bus.

:meth:`MetricsRegistry.bind` installs the standard subscribers that turn
the bus topics into named metrics (frame counts per kind, drop counts
per cause, per-phase durations, contact durations, delivery delays).
The registry is also usable standalone: any code can
``registry.counter("x").inc()``.

Snapshots (:meth:`MetricsRegistry.as_dict`) are sorted and JSON-plain,
so two runs of the same seeded simulation produce byte-identical
snapshots.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

from repro.obs.bus import TelemetryBus
from repro.obs.events import (
    ContactEnd,
    ContactStart,
    FaultInject,
    FaultRecover,
    FrameCollision,
    FrameRx,
    FrameTx,
    MessageDelivered,
    MessageGenerated,
    PhaseExit,
    QueueDrop,
    RadioSleep,
    RadioWake,
    TelemetryEvent,
)

#: Default histogram bucket upper bounds, in (simulated) seconds —
#: wide enough for everything from one control slot to a full run.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.01, 0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """Fixed-bucket histogram with a running sum and count.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches everything beyond the last edge.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be ascending")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (NaN lands in the overflow bucket)."""
        bounds = self.bounds
        # The first bound >= value; NaN compares false with every bound.
        idx = bisect_left(bounds, value) if value == value else len(bounds)
        self.counts[idx] += 1
        self.total += value
        self.count += 1

    def mean(self) -> Optional[float]:
        """Mean observed value, or None with no observations."""
        if self.count == 0:
            return None
        return self.total / self.count


_K = TypeVar("_K")
_V = TypeVar("_V")


class _Resolved(Dict[_K, _V]):
    """A dict that builds a missing key's value as ``make(key)``.

    A hit is one dict lookup; ``make`` runs once per key.
    """

    def __init__(self, make: Callable[[_K], _V]) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key: _K) -> _V:
        value = self[key] = self._make(key)
        return value


class MetricsRegistry:
    """Named metrics, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # The busiest feeders' metrics, resolved once per frame kind,
        # (phase, outcome) or lpl flag.  A metric still appears on the
        # first event that feeds it, as through counter()/histogram().
        self._tx: _Resolved[str, Tuple[Counter, Counter]] = _Resolved(
            lambda kind: (self.counter(f"frames_tx.{kind}"),
                          self.counter("bits_sent")))
        self._rx: _Resolved[str, Counter] = _Resolved(
            lambda kind: self.counter(f"frames_rx.{kind}"))
        self._collisions: _Resolved[str, Counter] = _Resolved(
            lambda kind: self.counter(f"frames_collision.{kind}"))
        self._phase_exits: _Resolved[
            Tuple[str, str], Tuple[Counter, Histogram]] = _Resolved(
                lambda key: (self.counter(f"phase.{key[0]}.{key[1]}"),
                             self.histogram(f"phase_duration_s.{key[0]}")))
        self._sleeps: _Resolved[bool, Counter] = _Resolved(
            lambda lpl: self.counter(
                "radio_sleeps.lpl" if lpl else "radio_sleeps.full"))
        self._wakes: _Resolved[bool, Tuple[Counter, Histogram]] = _Resolved(
            lambda lpl: (self.counter("radio_wakes.lpl" if lpl
                                      else "radio_wakes.full"),
                         self.histogram("sleep_duration_s")))

    # ------------------------------------------------------------------
    # access / creation
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created at zero on first use)."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created at zero on first use)."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(bounds)
        return metric

    def as_dict(self) -> Dict[str, object]:
        """Deterministic (sorted, JSON-plain) snapshot of every metric."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "total": h.total,
                    "count": h.count,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    # ------------------------------------------------------------------
    # bus feeding
    # ------------------------------------------------------------------
    def bind(self, bus: TelemetryBus) -> None:
        """Subscribe the standard topic-to-metric feeders on ``bus``."""
        bus.subscribe(FrameTx.topic, self._on_frame_tx)
        bus.subscribe(FrameRx.topic, self._on_frame_rx)
        bus.subscribe(FrameCollision.topic, self._on_frame_collision)
        bus.subscribe(QueueDrop.topic, self._on_queue_drop)
        bus.subscribe(PhaseExit.topic, self._on_phase_exit)
        bus.subscribe(RadioSleep.topic, self._on_radio_sleep)
        bus.subscribe(RadioWake.topic, self._on_radio_wake)
        bus.subscribe(ContactStart.topic, self._on_contact_start)
        bus.subscribe(ContactEnd.topic, self._on_contact_end)
        bus.subscribe(FaultInject.topic, self._on_fault_inject)
        bus.subscribe(FaultRecover.topic, self._on_fault_recover)
        bus.subscribe(MessageGenerated.topic, self._on_generated)
        bus.subscribe(MessageDelivered.topic, self._on_delivered)

    def _on_frame_tx(self, event: TelemetryEvent) -> None:
        assert isinstance(event, FrameTx)
        frames, bits = self._tx[event.frame_kind]
        frames.value += 1
        bits.inc(event.bits)

    def _on_frame_rx(self, event: TelemetryEvent) -> None:
        assert isinstance(event, FrameRx)
        self._rx[event.frame_kind].value += 1

    def _on_frame_collision(self, event: TelemetryEvent) -> None:
        assert isinstance(event, FrameCollision)
        self._collisions[event.frame_kind].value += 1

    def _on_queue_drop(self, event: TelemetryEvent) -> None:
        assert isinstance(event, QueueDrop)
        self.counter(f"queue_drops.{event.cause}").inc()

    def _on_phase_exit(self, event: TelemetryEvent) -> None:
        assert isinstance(event, PhaseExit)
        exits, durations = self._phase_exits[event.phase, event.outcome]
        exits.value += 1
        durations.observe(event.duration_s)

    def _on_radio_sleep(self, event: TelemetryEvent) -> None:
        assert isinstance(event, RadioSleep)
        self._sleeps[event.lpl].value += 1

    def _on_radio_wake(self, event: TelemetryEvent) -> None:
        assert isinstance(event, RadioWake)
        wakes, slept = self._wakes[event.lpl]
        wakes.value += 1
        slept.observe(event.slept_s)

    def _on_contact_start(self, event: TelemetryEvent) -> None:
        assert isinstance(event, ContactStart)
        self.counter("contacts_started").inc()

    def _on_contact_end(self, event: TelemetryEvent) -> None:
        assert isinstance(event, ContactEnd)
        self.counter("contacts_ended").inc()
        self.histogram("contact_duration_s").observe(event.duration)

    def _on_fault_inject(self, event: TelemetryEvent) -> None:
        assert isinstance(event, FaultInject)
        self.counter(f"faults_injected.{event.model}").inc()

    def _on_fault_recover(self, event: TelemetryEvent) -> None:
        assert isinstance(event, FaultRecover)
        self.counter(f"faults_recovered.{event.model}").inc()
        self.histogram("fault_downtime_s").observe(event.down_s)

    def _on_generated(self, event: TelemetryEvent) -> None:
        assert isinstance(event, MessageGenerated)
        self.counter("messages_generated").inc()

    def _on_delivered(self, event: TelemetryEvent) -> None:
        assert isinstance(event, MessageDelivered)
        self.counter("messages_delivered").inc()
        self.histogram("delivery_delay_s").observe(event.delay_s)
        self.histogram("delivery_hops",
                       bounds=(1.0, 2.0, 3.0, 5.0, 8.0, 13.0)).observe(
            float(event.hops))
