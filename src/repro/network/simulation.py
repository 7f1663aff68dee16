"""Top-level simulation: build the network from a config, run, report.

One :class:`Simulation` instance owns a full stack — scheduler, mobility,
medium, nodes — for one run.  :meth:`Simulation.run` drives the event
loop to the configured duration and returns a :class:`SimulationResult`
with the paper's headline metrics plus detailed channel/protocol/queue
counters.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.checks.invariants import InvariantChecker, invariants_forced
from repro.core.protocol import AgentStats, SinkAgent
from repro.core.queue import FtdQueue
from repro.des.rng import RandomStreams
from repro.des.scheduler import EventScheduler
from repro.energy.model import BERKELEY_MOTE
from repro.metrics.collector import MetricsCollector
from repro.mobility.base import Area
from repro.mobility.levy import LevyWalkMobility
from repro.mobility.manager import MobilityManager
from repro.mobility.stationary import StationaryMobility
from repro.mobility.walk import RandomWalkMobility
from repro.mobility.waypoint import RandomWaypointMobility
from repro.mobility.zone import ZoneGridMobility
from repro.network.config import SimulationConfig
from repro.network.faults import FaultModel
from repro.network.node import SensorNode, SinkNode
from repro.obs.bus import TelemetryBus
from repro.obs.export import writer_for_path
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracker
from repro.radio.medium import WirelessMedium
from repro.radio.timing import ChannelTiming
from repro.radio.transceiver import Transceiver
from repro.scenario.mobility import ContactPlanMobility
from repro.scenario.plan import resolve_plan
from repro.traffic.generators import PoissonTraffic


@dataclass
class SimulationResult:
    """Outcome of one run."""

    config: SimulationConfig
    duration_s: float
    messages_generated: int
    messages_delivered: int
    delivery_ratio: float
    average_delay_s: Optional[float]
    average_hops: Optional[float]
    average_power_mw: float
    per_node_power_mw: List[float]
    transmissions: int
    frames_corrupted: int
    bits_sent: int
    queue_drops_overflow: int
    queue_drops_threshold: int
    agent_totals: Dict[str, int]
    events_fired: int
    wall_clock_s: float
    #: Telemetry aggregates (metric snapshot + span summary) when the run
    #: had ``config.telemetry`` on; None otherwise.
    telemetry: Optional[Dict[str, object]] = None

    def transmissions_per_delivery(self) -> Optional[float]:
        """Transmission overhead: channel uses per delivered message."""
        if self.messages_delivered == 0:
            return None
        return self.transmissions / self.messages_delivered

    def to_dict(self) -> Dict[str, object]:
        """Plain-data view of the result (for JSON export).

        Deliberately excludes ``wall_clock_s`` and ``telemetry``:
        everything in this view is a pure function of the seeded
        configuration *and independent of whether telemetry was on*, so
        two runs of the same config produce byte-identical dicts (the
        determinism regression test relies on this; the full lossless
        round trip is :func:`repro.codec.to_plain`).
        """
        return {
            "protocol": self.config.protocol,
            "seed": self.config.seed,
            "n_sinks": self.config.n_sinks,
            "n_sensors": self.config.n_sensors,
            "mobility_model": self.config.mobility_model,
            "sink_placement": self.config.sink_placement,
            "sink_mobility": self.config.sink_mobility,
            "duration_s": self.duration_s,
            "generated": self.messages_generated,
            "delivered": self.messages_delivered,
            "delivery_ratio": self.delivery_ratio,
            "average_delay_s": self.average_delay_s,
            "average_hops": self.average_hops,
            "average_power_mw": self.average_power_mw,
            "transmissions": self.transmissions,
            "frames_corrupted": self.frames_corrupted,
            "queue_drops_overflow": self.queue_drops_overflow,
            "queue_drops_threshold": self.queue_drops_threshold,
            "events_fired": self.events_fired,
        }


class Simulation:
    """Builds and runs one DFT-MSN simulation."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.scheduler = EventScheduler()
        self.streams = RandomStreams(config.seed)
        self.collector = MetricsCollector()
        self.params = config.effective_params()
        self.timing = ChannelTiming(
            bandwidth_bps=config.bandwidth_bps,
            control_bits=config.control_bits,
            data_bits=config.message_bits,
        )
        self.area = Area(config.area_m, config.area_m)

        self.mobility = self._build_mobility()
        self.medium = WirelessMedium(self.scheduler, self.timing, self.mobility)
        self.sinks: List[SinkNode] = []
        self.sensors: List[SensorNode] = []
        #: Invariant sweeps performed by the last :meth:`run` (0 when
        #: checking was disabled).
        self.invariant_checks_run = 0
        #: Telemetry plumbing; None until :meth:`enable_telemetry`.
        self.bus: Optional[TelemetryBus] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.spans: Optional[SpanTracker] = None
        #: Per-run message ids: a trace is a function of the config
        #: alone, not of what else ran in the process before.
        self.next_message_id = itertools.count().__next__
        self._build_sinks()
        self._build_sensors()
        #: Fault models built from ``config.faults`` (armed by :meth:`run`).
        self.fault_models: List[FaultModel] = [
            spec.build() for spec in config.faults
        ]
        if config.telemetry or config.trace_path is not None:
            self.enable_telemetry()

    def enable_telemetry(self) -> TelemetryBus:
        """Attach the telemetry bus to every instrumented layer.

        Idempotent; returns the bus so callers can add subscribers.
        Emitting events never touches the scheduler or any RNG, so an
        instrumented run stays result-identical to a bare one.
        """
        if self.bus is not None:
            return self.bus
        bus = TelemetryBus()
        self.bus = bus
        self.metrics = MetricsRegistry()
        self.metrics.bind(bus)
        self.spans = SpanTracker()
        self.spans.subscribe(bus)
        self.medium.bind_telemetry(bus)
        self.collector.bind_telemetry(bus)
        for sink in self.sinks:
            sink.agent.bind_telemetry(bus)
        for sensor in self.sensors:
            sensor.agent.bind_telemetry(bus)
        return bus

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_mobility(self) -> MobilityManager:
        cfg = self.config
        if cfg.mobility_model == "plan":
            # Plan replay: one deterministic model owns every node (sinks
            # included) and teleports pairs into range on schedule.  No
            # mobility RNG is consumed — substreams are derived by name,
            # so the traffic/MAC streams are unaffected.
            plan = resolve_plan(cfg.plan_path, cfg.scenario)
            node_ids = list(cfg.sink_ids) + list(cfg.sensor_ids)
            plan_model = ContactPlanMobility(node_ids, self.area, plan,
                                             comm_range=cfg.comm_range_m)
            return MobilityManager(
                self.scheduler, self.area, [plan_model],
                comm_range=cfg.comm_range_m, tick_s=cfg.mobility_tick_s,
            )
        sink_rng = self.streams.stream("sink-placement")
        if cfg.sink_mobility == "mobile":
            # Sinks carried by people: same zone mobility as sensors.
            sink_model = ZoneGridMobility(
                list(cfg.sink_ids), self.area, sink_rng,
                zones_per_side=cfg.zones_per_side,
                speed_min=cfg.speed_min_mps, speed_max=cfg.speed_max_mps,
                exit_probability=cfg.exit_probability,
            )
        elif cfg.sink_placement == "grid":
            positions = self._grid_positions(cfg.n_sinks)
            sink_model = StationaryMobility(list(cfg.sink_ids), self.area,
                                            positions=positions)
        else:
            sink_model = StationaryMobility(list(cfg.sink_ids), self.area,
                                            rng=sink_rng)
        sensor_rng = self.streams.stream("mobility")
        sensor_ids = list(cfg.sensor_ids)
        if cfg.mobility_model == "zone":
            sensor_model = ZoneGridMobility(
                sensor_ids, self.area, sensor_rng,
                zones_per_side=cfg.zones_per_side,
                speed_min=cfg.speed_min_mps, speed_max=cfg.speed_max_mps,
                exit_probability=cfg.exit_probability,
            )
        elif cfg.mobility_model == "walk":
            sensor_model = RandomWalkMobility(
                sensor_ids, self.area, sensor_rng,
                speed_min=cfg.speed_min_mps, speed_max=cfg.speed_max_mps,
            )
        elif cfg.mobility_model == "levy":
            sensor_model = LevyWalkMobility(
                sensor_ids, self.area, sensor_rng,
                speed_min=max(0.1, cfg.speed_min_mps),
                speed_max=max(0.2, cfg.speed_max_mps),
                step_max_m=cfg.area_m,
            )
        else:
            sensor_model = RandomWaypointMobility(
                sensor_ids, self.area, sensor_rng,
                speed_min=max(0.1, cfg.speed_min_mps),
                speed_max=max(0.2, cfg.speed_max_mps),
            )
        return MobilityManager(
            self.scheduler, self.area, [sink_model, sensor_model],
            comm_range=cfg.comm_range_m, tick_s=cfg.mobility_tick_s,
        )

    def _grid_positions(self, n: int) -> List[Tuple[float, float]]:
        """Evenly spread sink positions ("strategic locations")."""
        cols = math.ceil(math.sqrt(n))
        rows = math.ceil(n / cols)
        positions: List[Tuple[float, float]] = []
        for k in range(n):
            r, c = divmod(k, cols)
            x = (c + 0.5) * self.area.width / cols
            y = (r + 0.5) * self.area.height / rows
            positions.append((x, y))
        return positions

    def _build_sinks(self) -> None:
        for nid in self.config.sink_ids:
            radio = Transceiver(nid, self.medium, self.scheduler, BERKELEY_MOTE)
            queue = FtdQueue(self.config.queue_capacity, drop_threshold=1.0)
            agent = SinkAgent(
                nid, radio, self.scheduler, self.params,
                self.streams.stream(f"mac:{nid}"), queue,
                collector=self.collector,
            )
            self.sinks.append(SinkNode(nid, agent, radio))

    def _build_sensors(self) -> None:
        cfg = self.config
        agent_cls = cfg.agent_class
        drop_threshold = cfg.queue_drop_threshold()
        for nid in cfg.sensor_ids:
            radio = Transceiver(nid, self.medium, self.scheduler, BERKELEY_MOTE)
            queue = FtdQueue(cfg.queue_capacity, drop_threshold=drop_threshold)
            agent = agent_cls(
                nid, radio, self.scheduler, self.params,
                self.streams.stream(f"mac:{nid}"), queue,
                collector=self.collector,
            )
            node = SensorNode(
                nid, agent, radio, queue, self.scheduler, self.collector,
                self.next_message_id, message_bits=cfg.message_bits,
            )
            node.traffic = PoissonTraffic(
                self.scheduler, node.on_sense,
                self.streams.stream(f"traffic:{nid}"),
                mean_interval_s=cfg.mean_arrival_s,
                stop_time=cfg.duration_s,
            )
            self.sensors.append(node)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the event loop to the configured duration and collect results.

        With ``config.check_invariants`` (or the process-wide
        ``REPRO_CHECK_INVARIANTS`` toggle) set, an
        :class:`~repro.checks.invariants.InvariantChecker` sweeps the
        protocol invariants every ``config.invariant_interval_s``
        simulated seconds and once more after the loop drains, raising
        :exc:`~repro.checks.invariants.InvariantViolation` on the first
        breach.  The checker only reads protocol state, so every metric
        is identical either way; only ``events_fired`` additionally
        counts the checker's sweep events.  A ``config.trace_path``
        writer is flushed, closed and unsubscribed even if the run
        raises.
        """
        started = time.perf_counter()  # lint: disable=DET002 (wall metric)
        writer = None
        if self.config.trace_path is not None:
            writer = writer_for_path(self.config.trace_path)
            writer.subscribe(self.enable_telemetry())
        try:
            self._run_loop()
        finally:
            if writer is not None:
                writer.close()
        wall = time.perf_counter() - started  # lint: disable=DET002 (wall metric)
        return self._collect_result(wall)

    def _run_loop(self) -> None:
        """Arm the checker and faults, start every node, run, finalize."""
        checker: Optional[InvariantChecker] = None
        if self.config.check_invariants or invariants_forced():
            checker = InvariantChecker(
                self.scheduler, self.sensors, self.collector,
                interval_s=self.config.invariant_interval_s)
            checker.install(until=self.config.duration_s)
        for model in self.fault_models:
            model.arm(self)  # after trace-writer setup: the bus is final
        self.mobility.start()
        for sink in self.sinks:
            sink.start()
        for sensor in self.sensors:
            sensor.start()

        self.scheduler.run_until(self.config.duration_s)

        for sink in self.sinks:
            sink.finalize()
        for sensor in self.sensors:
            sensor.finalize()
        if checker is not None:
            checker.check_now()
            self.invariant_checks_run = checker.checks_run

    def _collect_result(self, wall_clock_s: float) -> SimulationResult:
        duration = self.config.duration_s
        per_node_power = [
            s.radio.meter.consumed_mj / duration for s in self.sensors
        ]  # mJ / s == mW
        avg_power = sum(per_node_power) / len(per_node_power)

        totals: Dict[str, int] = {}
        for sensor in self.sensors:
            stats: AgentStats = sensor.agent.stats
            for name, value in vars(stats).items():
                totals[name] = totals.get(name, 0) + value

        drops_overflow = sum(s.queue.stats.drops_overflow for s in self.sensors)
        drops_threshold = sum(s.queue.stats.drops_threshold for s in self.sensors)

        telemetry: Optional[Dict[str, object]] = None
        if self.metrics is not None and self.spans is not None:
            telemetry = {
                "metrics": self.metrics.as_dict(),
                "spans": self.spans.summary(),
            }

        return SimulationResult(
            config=self.config,
            duration_s=duration,
            messages_generated=self.collector.messages_generated,
            messages_delivered=self.collector.messages_delivered,
            delivery_ratio=self.collector.delivery_ratio(),
            average_delay_s=self.collector.average_delay(),
            average_hops=self.collector.average_hops(),
            average_power_mw=avg_power,
            per_node_power_mw=per_node_power,
            transmissions=self.medium.stats.transmissions,
            frames_corrupted=self.medium.stats.frames_corrupted,
            bits_sent=self.medium.stats.bits_sent,
            queue_drops_overflow=drops_overflow,
            queue_drops_threshold=drops_threshold,
            agent_totals=totals,
            events_fired=self.scheduler.events_fired,
            wall_clock_s=wall_clock_s,
            telemetry=telemetry,
        )


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Convenience one-shot: build and run a simulation."""
    return Simulation(config).run()
