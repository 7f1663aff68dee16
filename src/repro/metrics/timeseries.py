"""Time-series sampling of network state during a run.

``TimeSeriesProbe.attach(sim)`` hooks a simulation before ``run()`` and
samples network-level signals on a fixed period: cumulative delivery
ratio, mean queue occupancy, the xi distribution, cumulative average
power.  Used by the convergence/warm-up analyses and the trace examples
(the headline Fig. 2 metrics are end-of-run scalars; these series show
*how* the protocol gets there).

The probe is a telemetry-bus subscriber: it tallies the
``message.generated`` / ``message.delivered`` topics instead of reaching
into the collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, TYPE_CHECKING

from repro.obs.bus import TelemetryBus
from repro.obs.events import MessageDelivered, MessageGenerated, TelemetryEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.simulation import Simulation


@dataclass
class Sample:
    """One sampling instant."""

    time: float
    generated: int
    delivered: int
    delivery_ratio: float
    mean_queue_len: float
    mean_xi: float
    max_xi: float
    sleeping_fraction: float
    mean_power_mw: float


class TimeSeriesProbe:
    """Samples a packet-level simulation every ``period_s``.

    Build with :meth:`attach`, which subscribes the probe to the
    simulation's telemetry bus and arms periodic sampling.
    """

    def __init__(self, sim: "Simulation", period_s: float = 250.0, *,
                 bus: TelemetryBus) -> None:
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.period_s = period_s
        self.samples: List[Sample] = []
        self._armed = False
        # The tallies mirror the collector exactly (the collector emits
        # once per generation / fresh delivery).
        self._generated = 0
        self._delivered = 0
        bus.subscribe(MessageGenerated.topic, self._on_generated)
        bus.subscribe(MessageDelivered.topic, self._on_delivered)

    @classmethod
    def attach(cls, sim: "Simulation",
               period_s: float = 250.0) -> "TimeSeriesProbe":
        """Build a bus-backed probe on ``sim`` and arm it (call before
        ``sim.run()``)."""
        probe = cls(sim, period_s, bus=sim.enable_telemetry())
        probe.arm()
        return probe

    def _on_generated(self, event: TelemetryEvent) -> None:
        assert isinstance(event, MessageGenerated)
        self._generated += 1

    def _on_delivered(self, event: TelemetryEvent) -> None:
        assert isinstance(event, MessageDelivered)
        self._delivered += 1

    def arm(self) -> None:
        """Schedule periodic sampling (call before ``sim.run()``)."""
        if not self._armed:
            self._armed = True
            self.sim.scheduler.schedule(self.period_s, self._tick)

    def _tick(self) -> None:
        self.samples.append(self.sample())
        self.sim.scheduler.schedule(self.period_s, self._tick)

    def sample(self) -> Sample:
        """Take one snapshot of network state right now."""
        sim = self.sim
        now = sim.scheduler.now
        sensors = sim.sensors
        n = len(sensors)
        queue_total = sum(len(s.queue) for s in sensors)
        xis = [getattr(s.agent, "xi", getattr(s.agent, "success_rate", 0.0))
               for s in sensors]
        sleeping = sum(
            1 for s in sensors if not s.radio.state.awake
        )
        power = [s.radio.meter.average_power_mw(now) for s in sensors]
        generated = self._generated
        delivered = self._delivered
        return Sample(
            time=now,
            generated=generated,
            delivered=delivered,
            delivery_ratio=(delivered / generated) if generated else 0.0,
            mean_queue_len=queue_total / n,
            mean_xi=sum(xis) / n,
            max_xi=max(xis) if xis else 0.0,
            sleeping_fraction=sleeping / n,
            mean_power_mw=sum(power) / n,
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def series(self, attr: str) -> List[float]:
        """One named column of the sampled series."""
        if not self.samples:
            return []
        if not hasattr(self.samples[0], attr):
            raise AttributeError(f"no sampled field {attr!r}")
        return [getattr(s, attr) for s in self.samples]

    def as_table(self) -> str:
        """Human-readable dump of the sampled series."""
        header = (f"{'t(s)':>8} {'gen':>6} {'del':>6} {'ratio':>6} "
                  f"{'queue':>6} {'xi':>5} {'sleep%':>6} {'mW':>6}")
        lines = [header]
        for s in self.samples:
            lines.append(
                f"{s.time:>8.0f} {s.generated:>6} {s.delivered:>6} "
                f"{s.delivery_ratio:>6.3f} {s.mean_queue_len:>6.1f} "
                f"{s.mean_xi:>5.2f} {100 * s.sleeping_fraction:>6.1f} "
                f"{s.mean_power_mw:>6.2f}"
            )
        return "\n".join(lines)
