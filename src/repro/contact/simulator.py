"""The contact-level simulator.

Advances mobility on a tick, detects contacts, and at each contact's end
runs a capacity-limited bidirectional exchange between the two nodes'
policies.  Transfer timestamps are spread across the contact interval so
delay metrics remain meaningful.

No MAC is modeled: the exchange is contention-free, limited only by
``duration * bandwidth / message_bits`` (scaled by ``mac_efficiency`` to
approximate protocol overhead).  Results therefore upper-bound the
packet-level simulator's, with matching protocol *orderings*.

A refused offer still spends its transfer slot: the air time was used.
Under FAD most offers end this way (97.5 % on the paper topology): the
receiver's Eq. 2 FTD reaches the drop threshold and the copy is refused,
which changes nothing but the receiver's ``drops_threshold`` count.  The
next cycle (the receiver's reverse decision, the same offer one slot
later, the same refusal) then repeats it exactly, as long as no policy
state moves with time.  A policy says how long that holds through
:meth:`~repro.contact.policies.ContactPolicy.steady_at` (FAD: until the
next whole xi decay step).  So after each threshold refusal the loop
counts the cycles ahead that only read steady state, and once one of
them has repeated the refusal it charges the rest in one step: their
slots and their ``drops_threshold`` counts, with no policy calls.

Two mobility regimes feed the exchange loop (docs/SCENARIOS.md):

* **geometric** (default): synthetic zone-grid motion scanned by the
  :class:`~repro.contact.detector.ContactTracer`;
* **plan replay** (``plan_path`` or a plan-driven ``scenario``): the
  parsed :class:`~repro.scenario.plan.ContactPlan` windows are fed
  straight into the exchange loop, bypassing geometry entirely — the
  same plan can then drive the packet-level simulator for a like-for-like
  comparison on an identical contact sequence.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.checks.tolerance import THRESHOLD_EPS
from repro.codec import PlainData, require_finite
from repro.contact.detector import Contact, ContactTracer, tick_times
from repro.contact.policies import ContactPolicy
from repro.core.message import DataMessage, MessageCopy
from repro.des.rng import RandomStreams
from repro.des.scheduler import EventScheduler
from repro.metrics.collector import MetricsCollector
from repro.mobility.base import Area
from repro.mobility.manager import MobilityManager
from repro.mobility.stationary import StationaryMobility
from repro.mobility.zone import ZoneGridMobility
from repro.obs.bus import TelemetryBus
from repro.obs.events import ContactEnd, ContactStart, TelemetryEvent
from repro.obs.export import writer_for_path
from repro.protocols.registry import contact_policy_names, get_protocol
from repro.scenario.plan import ContactPlan, load_contact_plan, parse_contact_plan
from repro.scenario.spec import ScenarioSpec


@dataclass(frozen=True)
class ContactSimConfig(PlainData):
    """Configuration of one contact-level run (paper-default topology)."""

    policy: str = "fad"
    seed: int = 1
    duration_s: float = 25_000.0
    n_sensors: int = 100
    n_sinks: int = 3
    area_m: float = 150.0
    zones_per_side: int = 5
    comm_range_m: float = 10.0
    speed_min_mps: float = 0.0
    speed_max_mps: float = 5.0
    exit_probability: float = 0.2
    tick_s: float = 1.0
    mean_arrival_s: float = 120.0
    message_bits: int = 1000
    bandwidth_bps: float = 10_000.0
    mac_efficiency: float = 0.5
    queue_capacity: int = 200
    #: Stream every bus event to this file (JSONL, or CSV for ``*.csv``),
    #: the same trace format packet-level runs emit (``dftmsn report``
    #: consumes both).
    trace_path: Optional[str] = None
    #: Replay an external ION-style contact plan (file path) instead of
    #: running synthetic mobility; see docs/SCENARIOS.md for the grammar.
    plan_path: Optional[str] = None
    #: Scenario provenance; a plan-driven spec (``mobility == "plan"``)
    #: replays its inline plan when ``plan_path`` is unset.
    scenario: Optional[ScenarioSpec] = None

    def __post_init__(self) -> None:
        require_finite(self)
        if self.policy not in contact_policy_names():
            raise ValueError(f"unknown policy {self.policy!r}; "
                             f"choose from {sorted(contact_policy_names())}")
        if self.duration_s <= 0 or self.tick_s <= 0:
            raise ValueError("duration and tick must be positive")
        if not 0.0 < self.mac_efficiency <= 1.0:
            raise ValueError("mac_efficiency must be in (0, 1]")
        if self.n_sensors < 1 or self.n_sinks < 1:
            raise ValueError("need at least one sensor and one sink")
        if self.speed_min_mps < 0 or self.speed_max_mps < self.speed_min_mps:
            raise ValueError("invalid speed range: need "
                             "0 <= speed_min_mps <= speed_max_mps")
        if not 0.0 <= self.exit_probability <= 1.0:
            raise ValueError("exit_probability must be in [0, 1]")
        if self.comm_range_m <= 0 or self.area_m <= 0:
            raise ValueError("geometry must be positive")
        if self.zones_per_side < 1:
            raise ValueError("zones_per_side must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if self.mean_arrival_s <= 0:
            raise ValueError("mean arrival interval must be positive")
        if self.message_bits < 1 or self.bandwidth_bps <= 0:
            raise ValueError("message size and bandwidth must be positive")
        if self.scenario is not None and not isinstance(self.scenario,
                                                        ScenarioSpec):
            raise ValueError(f"scenario must be a ScenarioSpec, "
                             f"got {self.scenario!r}")

    def resolved_plan(self) -> Optional[ContactPlan]:
        """The contact plan this config replays, if any.

        An explicit ``plan_path`` wins; otherwise a plan-driven scenario
        supplies its inline plan.  ``None`` means geometric mobility.
        """
        if self.plan_path is not None:
            return load_contact_plan(self.plan_path)
        if self.scenario is not None and self.scenario.mobility == "plan":
            assert self.scenario.plan is not None  # spec validates this
            return parse_contact_plan(self.scenario.plan)
        return None


@dataclass
class ContactSimResult:
    """Outcome of one contact-level run."""

    config: ContactSimConfig
    messages_generated: int
    messages_delivered: int
    delivery_ratio: float
    average_delay_s: Optional[float]
    average_hops: Optional[float]
    transfers: int
    contacts: int
    usable_contacts: int

    def transfers_per_delivery(self) -> Optional[float]:
        """Transfer overhead per delivered message."""
        if self.messages_delivered == 0:
            return None
        return self.transfers / self.messages_delivered


class ContactSimulation:
    """Builds and runs one contact-level simulation."""

    def __init__(self, config: ContactSimConfig) -> None:
        self.config = config
        self.collector = MetricsCollector()
        streams = RandomStreams(config.seed)
        sink_ids = list(range(config.n_sinks))
        sensor_ids = list(range(config.n_sinks,
                                config.n_sinks + config.n_sensors))

        # The exchange logic is itself a bus subscriber: the simulator
        # consumes the same contact.end events a trace exporter would.
        self.bus = TelemetryBus()
        self.plan = config.resolved_plan()
        self.mobility: Optional[MobilityManager] = None
        self._tracer: Optional[ContactTracer] = None
        if self.plan is not None:
            # Replay mode: the plan's windows are fed straight into the
            # exchange loop; no geometry, no mobility RNG consumption.
            self.plan.require_nodes(range(config.n_sinks + config.n_sensors))
        else:
            area = Area(config.area_m, config.area_m)
            sink_model = StationaryMobility(
                sink_ids, area, rng=streams.stream("sink-placement"))
            sensor_model = ZoneGridMobility(
                sensor_ids, area, streams.stream("mobility"),
                zones_per_side=config.zones_per_side,
                speed_min=config.speed_min_mps,
                speed_max=config.speed_max_mps,
                exit_probability=config.exit_probability,
            )
            # The manager is stepped manually; the scheduler is only a clock.
            self.mobility = MobilityManager(EventScheduler(), area,
                                            [sink_model, sensor_model],
                                            comm_range=config.comm_range_m,
                                            tick_s=config.tick_s)
            self._tracer = ContactTracer(self.mobility)
            self._tracer.subscribe(self.bus)
            self.bus.subscribe(ContactEnd.topic, self._on_contact_end_event)
        policy_cls = get_protocol(config.policy).policy_class
        assert policy_cls is not None  # ContactSimConfig validated the name
        self.policies: Dict[int, ContactPolicy] = {}
        for nid in sink_ids:
            self.policies[nid] = policy_cls(nid, capacity=config.queue_capacity,
                                            is_sink=True)
        for nid in sensor_ids:
            self.policies[nid] = policy_cls(nid, capacity=config.queue_capacity)

        #: Per-run message ids (see ``Simulation.next_message_id``).
        self.next_message_id = itertools.count().__next__
        self._arrivals = self._generate_arrivals(streams, sensor_ids)
        self.transfers = 0
        self.usable_contacts = 0
        self._replayed_contacts = 0

    def _on_contact_end_event(self, event: TelemetryEvent) -> None:
        assert isinstance(event, ContactEnd)
        self._on_contact_end(event.a, event.b, event.started, event.time)

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def _generate_arrivals(self, streams: RandomStreams,
                           sensor_ids: List[int]) -> List[Tuple[float, int]]:
        """Pre-draw every Poisson arrival as (time, node), heap-ordered."""
        heap: List[Tuple[float, int]] = []
        for nid in sensor_ids:
            rng = streams.stream(f"traffic:{nid}")
            t = rng.expovariate(1.0 / self.config.mean_arrival_s)
            while t < self.config.duration_s:
                heap.append((t, nid))
                t += rng.expovariate(1.0 / self.config.mean_arrival_s)
        heapq.heapify(heap)
        return heap

    def _flush_arrivals(self, now: float) -> None:
        while self._arrivals and self._arrivals[0][0] <= now:
            created_at, nid = heapq.heappop(self._arrivals)
            message = DataMessage(message_id=self.next_message_id(),
                                  origin=nid, created_at=created_at,
                                  size_bits=self.config.message_bits)
            self.collector.record_generation(message.message_id, created_at,
                                             origin=nid)
            self.policies[nid].enqueue_new(message)

    # ------------------------------------------------------------------
    # exchange
    # ------------------------------------------------------------------
    def _contact_capacity(self, contact: Contact,
                          rate_bps: Optional[float] = None) -> int:
        rate = self.config.bandwidth_bps if rate_bps is None else rate_bps
        per_message_s = self.config.message_bits / rate
        usable = contact.duration * self.config.mac_efficiency
        # The quotient of two rounded floats can land a few ULPs below a
        # whole number of messages (0.3 / 0.1 == 2.9999999999999996), so
        # floor it with the shared tolerance rather than lose that slot.
        return int(usable / per_message_s + THRESHOLD_EPS)

    def _on_contact_end(self, a: int, b: int, start: float, end: float,
                        rate_bps: Optional[float] = None) -> None:
        contact = Contact(a, b, start, end)
        budget = self._contact_capacity(contact, rate_bps)
        if budget <= 0:
            return
        pa, pb = self.policies[a], self.policies[b]
        slot = contact.duration / max(budget, 1)
        used = 0
        stalled = 0
        # The last threshold-refused copy, ``used`` just after that
        # refusal, and how many cycles after it are steady.
        refused: Optional[MessageCopy] = None
        refused_used = 0
        steady = 0
        # Alternate directions until the budget is spent or both stall.
        direction = 0
        while used < budget and stalled < 2:
            src, dst = (pa, pb) if direction == 0 else (pb, pa)
            direction ^= 1
            copy = src.wants_to_send(dst, start + used * slot)
            if copy is None:
                stalled += 1
                continue
            # Transfer instants are spread over the contact, but can never
            # precede the message's creation (it may have been sensed
            # mid-contact) or this copy's own arrival at the carrier.
            floor = max(copy.message.created_at, copy.received_at)
            if floor > end:
                # The copy only exists after this window closes (a
                # future-dated message or a stale replayed contact):
                # there is no instant inside [start, end] at which the
                # transfer could legally happen, so this direction
                # stalls instead of delivering from the future.
                stalled += 1
                continue
            stalled = 0
            when = max(start + (used + 0.5) * slot, floor)
            if when > end:
                # Float-safety net: the spread term stays below ``end``
                # for any realizable budget, but the timestamp contract
                # (within [start, end]) must hold unconditionally.
                when = end
            stats = dst.queue.stats
            drops = stats.drops_threshold
            stored = dst.accept(copy, src, when)
            used += 1
            if stored is None:
                if stats.drops_threshold != drops:
                    if (copy is refused and used == refused_used + 1
                            and steady):
                        # The same refusal one slot later, after a cycle
                        # that read only steady state: the next steady - 1
                        # cycles would repeat it too.
                        used += steady - 1
                        stats.drops_threshold += steady - 1
                    refused, refused_used = copy, used
                    steady = self._steady_cycles(src, dst, start, end, slot,
                                                 floor, used, budget)
                continue
            src.after_transfer(copy, dst, when)
            self.transfers += 1
            if dst.is_sink:
                # Record with the sender-side copy: the collector adds the
                # final hop into the sink itself.
                self.collector.record_delivery(copy, dst.node_id, when)
        if used:
            self.usable_contacts += 1

    @staticmethod
    def _steady_cycles(src: ContactPolicy, dst: ContactPolicy, start: float,
                       end: float, slot: float, floor: float, used: int,
                       budget: int) -> int:
        """How many refusal cycles from slot ``used`` on read steady state.

        The cycle at slot ``k`` is ``dst``'s reverse decision and ``src``'s
        offer at ``start + k * slot`` and the refusal at that slot's
        transfer instant.  Steadiness is monotone in time and both
        instants grow with ``k``, so a binary search over the remaining
        budget finds the longest steady run.
        """
        def steady(k: int) -> bool:
            when = min(max(start + (k + 0.5) * slot, floor), end)
            t = max(start + k * slot, when)
            return src.steady_at(t) and dst.steady_at(t)

        remaining = budget - used
        if remaining <= 0 or not steady(used):
            return 0
        if steady(used + remaining - 1):
            return remaining
        lo, hi = 1, remaining  # lo cycles are steady, hi cycles are not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if steady(used + mid - 1):
                lo = mid
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _run_geometric(self) -> None:
        """Advance mobility tick by tick, exchanging at contact ends."""
        cfg = self.config
        assert self.mobility is not None and self._tracer is not None
        self._tracer.scan(0.0)
        for now, dt in tick_times(cfg.duration_s, cfg.tick_s):
            self.mobility.step(dt)
            self._flush_arrivals(now)
            self._tracer.scan(now)
        self._tracer.close(cfg.duration_s)

    def _run_replay(self) -> None:
        """Feed the plan's windows straight into the exchange loop.

        Contacts are processed in end-time order (ties broken by start
        and pair) and arrivals are flushed up to each window's end
        first, so every queued copy satisfies ``received_at <= end``
        exactly as in the geometric pipeline.  Windows beyond the run
        duration are dropped; one straddling it is truncated, matching
        ``ContactTracer.close``.  The windows' ``ContactStart`` and
        ``ContactEnd`` events are for a trace only (the exchange is fed
        directly), so each is built only when the bus routes it.
        """
        assert self.plan is not None
        cfg = self.config
        horizon = cfg.duration_s
        replay_order = sorted(self.plan.contacts,
                              key=lambda c: (c.end, c.start, c.a, c.b))
        for planned in replay_order:
            if planned.start >= horizon:
                continue
            end = min(planned.end, horizon)
            self._flush_arrivals(end)
            self._replayed_contacts += 1
            bus = self.bus
            if bus.routes(ContactStart.topic):
                bus.emit(ContactStart(time=planned.start, a=planned.a,
                                      b=planned.b))
            if bus.routes(ContactEnd.topic):
                bus.emit(ContactEnd(time=end, a=planned.a, b=planned.b,
                                    started=planned.start))
            self._on_contact_end(planned.a, planned.b, planned.start, end,
                                 rate_bps=planned.rate_bps)
        self._flush_arrivals(horizon)

    def run(self) -> ContactSimResult:
        """Run to completion and summarize."""
        cfg = self.config
        writer = None
        if cfg.trace_path is not None:
            writer = writer_for_path(cfg.trace_path)
            writer.subscribe(self.bus)
            self.collector.bind_telemetry(self.bus)
        try:
            if self.plan is not None:
                self._run_replay()
            else:
                self._run_geometric()
        finally:
            if writer is not None:
                writer.close()
        if self._tracer is not None:
            n_contacts = len(self._tracer.contacts)
        else:
            n_contacts = self._replayed_contacts
        return ContactSimResult(
            config=cfg,
            messages_generated=self.collector.messages_generated,
            messages_delivered=self.collector.messages_delivered,
            delivery_ratio=self.collector.delivery_ratio(),
            average_delay_s=self.collector.average_delay(),
            average_hops=self.collector.average_hops(),
            transfers=self.transfers,
            contacts=n_contacts,
            usable_contacts=self.usable_contacts,
        )


def run_contact_simulation(config: ContactSimConfig) -> ContactSimResult:
    """Convenience one-shot: build and run a contact-level simulation."""
    return ContactSimulation(config).run()
