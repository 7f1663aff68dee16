"""Fault injection: a pluggable family of failure models.

DFT-MSN's fault tolerance is about *message* survival: wearable sensors
die (battery, damage, owner leaves) and every message copy they carry is
lost.  The FTD redundancy (Sec. 3.1.2) exists precisely so that a
message survives its carriers' deaths.  This module grows that idea into
a family of :class:`FaultModel` subclasses:

* :class:`PermanentDeaths` — the classic model: a fraction of the
  sensors die for good at random times;
* :class:`TransientOutages` — sensors reboot: they go dark for an
  exponential downtime and come back (optionally with their volatile
  message buffer purged);
* :class:`RadioImpairment` — the channel degrades inside a time window:
  probabilistic frame loss plus a communication-range derating;
* :class:`SinkOutage` — a fraction of the sinks disappears for a window
  (infrastructure failure).

Each model is described by a serializable :class:`FaultSpec` carried in
``SimulationConfig.faults``, so fault campaigns survive the dict round
trip across :class:`~repro.harness.runner.ProcessPoolRunner` workers.
Every model draws from its own named substream (``faults:<name>``) of
the run's seeded RNG, and emits ``fault.inject`` / ``fault.recover``
telemetry (behind the usual ``bus is None`` guard — telemetry never
changes a seeded result).

The original :class:`FaultPlan` / :class:`FaultInjector` pair is kept
for programmatic use on an already-built simulation.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, replace
from typing import (
    ClassVar, Dict, List, Optional, Tuple, Type, TYPE_CHECKING,
)

from repro.codec import PlainData
from repro.obs.bus import TelemetryBus
from repro.obs.events import FaultInject, FaultRecover

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.node import SensorNode, SinkNode
    from repro.network.simulation import Simulation

#: Event priority of fault actions.  After the mobility tick (-10), so a
#: fault at time t sees positions already advanced to t, but before all
#: protocol events (0), so a node killed at t never also transmits at t.
FAULT_PRIORITY = -5


# ======================================================================
# serializable fault description
# ======================================================================
@dataclass(frozen=True)
class FaultSpec(PlainData):
    """Plain-data description of one fault model instance.

    ``kind`` selects the model; ``intensity`` is the model's severity
    knob in [0, 1] (fraction of nodes for node-level models, per-frame
    loss probability for ``"radio"``).  The fault is confined to the
    simulated-time window ``[start_s, end_s]`` (``end_s = None`` means
    the end of the run).  Remaining fields only matter to some kinds
    and keep their defaults otherwise.
    """

    kind: str
    intensity: float = 0.0
    start_s: float = 0.0
    end_s: Optional[float] = None
    #: Mean of the exponential downtime (``outages`` only).
    mean_downtime_s: float = 600.0
    #: Whether a rebooting node loses its buffered copies (``outages``).
    purge_buffer: bool = True
    #: Communication-range multiplier while impaired (``radio`` only).
    range_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {sorted(FAULT_KINDS)}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("fault intensity must be in [0, 1]")
        if self.start_s < 0:
            raise ValueError("fault window cannot start before t=0")
        if self.end_s is not None and self.end_s <= self.start_s:
            raise ValueError("fault window must end after it starts")
        if self.mean_downtime_s <= 0:
            raise ValueError("mean downtime must be positive")
        if not 0.0 < self.range_factor <= 1.0:
            raise ValueError("range factor must be in (0, 1]")

    def build(self) -> "FaultModel":
        """Instantiate the fault model this spec describes."""
        return FAULT_KINDS[self.kind](self)

    def scaled(self, intensity: float) -> "FaultSpec":
        """This spec at a different ``intensity`` (campaign sweeps)."""
        return replace(self, intensity=intensity)


# ======================================================================
# the model family
# ======================================================================
class FaultModel(abc.ABC):
    """Base class: arms a fault described by a :class:`FaultSpec`.

    :meth:`arm` is called once by :meth:`Simulation.run` after the
    telemetry bus (if any) is final and before the first event fires.
    It draws the model's whole plan from the ``faults:<name>`` substream
    up front — scheduling is the only side effect — so two models never
    perturb each other's randomness and the plan is independent of when
    other fault events fire.
    """

    #: Short model name: RNG substream suffix and telemetry ``model`` tag.
    name: ClassVar[str] = ""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.injections = 0
        self.recoveries = 0
        self._armed = False
        self._bus: Optional[TelemetryBus] = None
        self._sim: Optional["Simulation"] = None

    def arm(self, sim: "Simulation") -> None:
        """Pre-draw the fault plan and schedule it (idempotent)."""
        if self._armed:
            return
        self._armed = True
        self._sim = sim
        self._bus = sim.bus
        rng = sim.streams.stream(f"faults:{self.name}")
        self._install(sim, rng)

    @abc.abstractmethod
    def _install(self, sim: "Simulation", rng: random.Random) -> None:
        """Draw the plan from ``rng`` and schedule it on ``sim``."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _window(self, sim: "Simulation") -> Tuple[float, float]:
        """The spec's time window clamped to the run duration."""
        end = sim.config.duration_s if self.spec.end_s is None else self.spec.end_s
        return self.spec.start_s, end

    def _emit_inject(self, node: Optional[int], detail: str) -> None:
        self.injections += 1
        bus = self._bus
        if bus is not None and self._sim is not None:
            bus.emit(FaultInject(time=self._sim.scheduler.now, node=node,
                                 model=self.name, detail=detail))

    def _emit_recover(self, node: Optional[int], down_s: float) -> None:
        self.recoveries += 1
        bus = self._bus
        if bus is not None and self._sim is not None:
            bus.emit(FaultRecover(time=self._sim.scheduler.now, node=node,
                                  model=self.name, down_s=down_s))


class PermanentDeaths(FaultModel):
    """A fraction of the sensors dies for good at uniform random times.

    ``intensity`` is the death fraction; victims and death times come
    from the ``faults:deaths`` substream.  A transiently-down node hit
    by a death becomes permanently dead (it never recovers).
    """

    name: ClassVar[str] = "deaths"

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self.killed: List[int] = []

    def _install(self, sim: "Simulation", rng: random.Random) -> None:
        start, end = self._window(sim)
        sensors = [node.node_id for node in sim.sensors]
        victims = rng.sample(sensors, round(self.spec.intensity * len(sensors)))
        deaths = sorted((rng.uniform(start, end), nid) for nid in victims)
        for when, nid in deaths:
            sim.scheduler.schedule_at(when, self._kill, nid,
                                      priority=FAULT_PRIORITY)

    def _kill(self, node_id: int) -> None:
        node = _sensor_by_id(self._sim, node_id)
        if node.traffic is not None:
            node.traffic.stop()
        node.agent.fail(permanent=True)
        self.killed.append(node_id)
        self._emit_inject(node_id, "death")


class TransientOutages(FaultModel):
    """Sensors reboot: dark for an exponential downtime, then back.

    ``intensity`` is the fraction of sensors that suffer one outage
    episode inside the window; each downtime is exponential with mean
    ``mean_downtime_s``.  With ``purge_buffer`` (the default) a reboot
    loses every buffered message copy — the volatile-memory failure the
    FTD redundancy is designed to survive.  A node already down (e.g.
    killed by :class:`PermanentDeaths`) is skipped, and the model only
    recovers nodes it downed itself.
    """

    name: ClassVar[str] = "outages"

    def _install(self, sim: "Simulation", rng: random.Random) -> None:
        start, end = self._window(sim)
        self._down_at: Dict[int, float] = {}
        sensors = [node.node_id for node in sim.sensors]
        victims = rng.sample(sensors, round(self.spec.intensity * len(sensors)))
        episodes: List[Tuple[float, float, int]] = []
        for nid in victims:
            begin = rng.uniform(start, end)
            downtime = rng.expovariate(1.0 / self.spec.mean_downtime_s)
            episodes.append((begin, downtime, nid))
        for begin, downtime, nid in sorted(episodes):
            sim.scheduler.schedule_at(begin, self._down, nid,
                                      priority=FAULT_PRIORITY)
            sim.scheduler.schedule_at(begin + downtime, self._up, nid,
                                      priority=FAULT_PRIORITY)

    def _down(self, node_id: int) -> None:
        node = _sensor_by_id(self._sim, node_id)
        if node.agent.failed:
            return  # already dead or out — not ours to manage
        if node.traffic is not None:
            node.traffic.stop()
        node.agent.fail(permanent=False)
        assert self._sim is not None
        self._down_at[node_id] = self._sim.scheduler.now
        self._emit_inject(node_id, "outage")

    def _up(self, node_id: int) -> None:
        went_down = self._down_at.pop(node_id, None)
        if went_down is None:
            return  # we never downed this node
        node = _sensor_by_id(self._sim, node_id)
        if not node.agent.recover(purge_buffer=self.spec.purge_buffer):
            return  # permanently killed while it was out
        if node.traffic is not None:
            node.traffic.start()
        assert self._sim is not None
        self._emit_recover(node_id, self._sim.scheduler.now - went_down)


class RadioImpairment(FaultModel):
    """The channel degrades inside the window.

    ``intensity`` is a per-frame loss probability: each would-be
    receiver of a transmission independently misses the frame entirely
    (as if out of range — no LPL wake, no collision).  ``range_factor``
    additionally derates the communication range: pairs farther apart
    than ``range_factor * comm_range_m`` cannot hear each other at all
    while the window is open.  Loss draws come from the
    ``faults:radio`` substream, one per (transmission, in-range
    receiver), in the medium's deterministic audience order; the
    carrier-sense path is RNG-free by construction (it short-circuits).
    """

    name: ClassVar[str] = "radio"

    def _install(self, sim: "Simulation", rng: random.Random) -> None:
        self._rng = rng
        self._start, self._end = self._window(sim)
        self._mobility = sim.mobility
        self._derated_sq: Optional[float] = None
        if self.spec.range_factor < 1.0:
            derated = self.spec.range_factor * sim.config.comm_range_m
            self._derated_sq = derated * derated
        sim.medium.bind_faults(self)
        # Window markers (scheduled regardless of telemetry so that the
        # event count — hence events_fired — never depends on the bus).
        sim.scheduler.schedule_at(self._start, self._on_window_open,
                                  priority=FAULT_PRIORITY)
        if self._end <= sim.config.duration_s:
            sim.scheduler.schedule_at(self._end, self._on_window_close,
                                      priority=FAULT_PRIORITY)

    def _on_window_open(self) -> None:
        self._emit_inject(None, "impairment_on")

    def _on_window_close(self) -> None:
        self._emit_recover(None, self._end - self._start)

    # ------------------------------------------------------------------
    # RadioFaultHook interface (consulted by WirelessMedium)
    # ------------------------------------------------------------------
    def _active(self) -> bool:
        assert self._sim is not None
        now = self._sim.scheduler.now
        return self._start <= now < self._end

    def _out_of_derated_range(self, src: int, dst: int) -> bool:
        if self._derated_sq is None:
            return False
        sx, sy = self._mobility.position_of(src)
        dx, dy = self._mobility.position_of(dst)
        return (sx - dx) ** 2 + (sy - dy) ** 2 > self._derated_sq

    def frame_blocked(self, src: int, dst: int) -> bool:
        """Whether ``dst`` misses the frame ``src`` is starting (may
        draw randomness)."""
        if not self._active():
            return False
        if self._out_of_derated_range(src, dst):
            return True
        return self.spec.intensity > 0 and self._rng.random() < self.spec.intensity

    def carrier_blocked(self, src: int, dst: int) -> bool:
        """Whether ``dst`` cannot even sense ``src``'s carrier
        (RNG-free: carrier sensing short-circuits)."""
        return self._active() and self._out_of_derated_range(src, dst)


class SinkOutage(FaultModel):
    """A fraction of the sinks disappears for the window.

    ``intensity`` is the fraction of sinks affected (victims drawn from
    the ``faults:sink_outage`` substream).  Down sinks answer no RTS
    and record no deliveries; at the window's end they come back (their
    unbounded buffer is infrastructure memory, never purged).
    """

    name: ClassVar[str] = "sink_outage"

    def _install(self, sim: "Simulation", rng: random.Random) -> None:
        start, end = self._window(sim)
        self._start = start
        sinks = [node.node_id for node in sim.sinks]
        victims = sorted(rng.sample(sinks, round(self.spec.intensity * len(sinks))))
        for nid in victims:
            sim.scheduler.schedule_at(start, self._down, nid,
                                      priority=FAULT_PRIORITY)
            sim.scheduler.schedule_at(end, self._up, nid,
                                      priority=FAULT_PRIORITY)

    def _down(self, node_id: int) -> None:
        _sink_by_id(self._sim, node_id).agent.fail(permanent=False)
        self._emit_inject(node_id, "sink_outage")

    def _up(self, node_id: int) -> None:
        assert self._sim is not None
        if _sink_by_id(self._sim, node_id).agent.recover():
            self._emit_recover(node_id, self._sim.scheduler.now - self._start)


#: Fault kind -> model class (the :meth:`FaultSpec.build` registry).
FAULT_KINDS: Dict[str, Type[FaultModel]] = {
    PermanentDeaths.name: PermanentDeaths,
    TransientOutages.name: TransientOutages,
    RadioImpairment.name: RadioImpairment,
    SinkOutage.name: SinkOutage,
}


def _sensor_by_id(sim: Optional["Simulation"], node_id: int) -> "SensorNode":
    assert sim is not None
    for node in sim.sensors:
        if node.node_id == node_id:
            return node
    raise KeyError(f"node {node_id} is not a sensor")


def _sink_by_id(sim: Optional["Simulation"], node_id: int) -> "SinkNode":
    assert sim is not None
    for node in sim.sinks:
        if node.node_id == node_id:
            return node
    raise KeyError(f"node {node_id} is not a sink")


# ======================================================================
# back-compat: explicit plans on an already-built simulation
# ======================================================================
@dataclass(frozen=True)
class FaultPlan:
    """A deterministic list of (time, sensor node id) failures."""

    failures: Tuple[Tuple[float, int], ...]

    @classmethod
    def random_deaths(
        cls,
        sim: "Simulation",
        death_fraction: float,
        rng: Optional[random.Random] = None,
        start_s: float = 0.0,
        end_s: Optional[float] = None,
    ) -> "FaultPlan":
        """Kill a random fraction of sensors at uniform random times.

        ``death_fraction`` of the sensors die at times uniform in
        ``[start_s, end_s]`` (defaults to the whole run).
        """
        if not 0.0 <= death_fraction <= 1.0:
            raise ValueError("death fraction must be in [0, 1]")
        rng = rng or sim.streams.stream("faults")
        end = sim.config.duration_s if end_s is None else end_s
        if end <= start_s:
            raise ValueError("end must come after start")
        sensors = [node.node_id for node in sim.sensors]
        n_deaths = round(death_fraction * len(sensors))
        victims = rng.sample(sensors, n_deaths)
        failures = tuple(sorted(
            (rng.uniform(start_s, end), victim) for victim in victims
        ))
        return cls(failures)


class FaultInjector:
    """Schedules permanent failures on a built simulation."""

    def __init__(self, sim: "Simulation", plan: FaultPlan) -> None:
        self.sim = sim
        self.plan = plan
        self.killed: List[int] = []
        self._armed = False
        sensor_ids = {node.node_id for node in sim.sensors}
        for when, node_id in plan.failures:
            if node_id not in sensor_ids:
                raise ValueError(f"node {node_id} is not a sensor")
            if not 0.0 <= when <= sim.config.duration_s:
                raise ValueError(f"failure time {when} outside the run")

    def arm(self) -> None:
        """Schedule the failures (call before ``sim.run()``).

        Each kill carries :data:`FAULT_PRIORITY` so that a death at
        time t fires after the mobility tick but before any protocol
        event scheduled at the same instant — the victim never also
        transmits at its own time of death.
        """
        if self._armed:
            return
        self._armed = True
        for when, node_id in self.plan.failures:
            self.sim.scheduler.schedule_at(when, self._kill, node_id,
                                           priority=FAULT_PRIORITY)

    def _kill(self, node_id: int) -> None:
        for node in self.sim.sensors:
            if node.node_id == node_id:
                if node.traffic is not None:
                    node.traffic.stop()
                node.agent.fail()
                self.killed.append(node_id)
                bus = self.sim.bus
                if bus is not None:
                    bus.emit(FaultInject(
                        time=self.sim.scheduler.now, node=node_id,
                        model="deaths", detail="death"))
                return

    @property
    def deaths(self) -> int:
        """Number of failures executed so far."""
        return len(self.killed)
