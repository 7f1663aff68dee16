"""Unit tests for contact detection."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contact import Contact, ContactSimConfig, ContactTracer
from repro.contact.detector import contact_statistics
from repro.contact.simulator import ContactSimulation
from repro.des import EventScheduler
from repro.mobility import (
    Area,
    MobilityManager,
    RandomWalkMobility,
    StationaryMobility,
)
from repro.mobility.base import MobilityModel
from repro.obs.bus import ALL_TOPICS, TelemetryBus
from repro.obs.events import ContactEnd, ContactStart


class Shuttle(MobilityModel):
    """Node 1 shuttles toward/away from static node 0 on a schedule."""

    def __init__(self, node_ids, area, schedule):
        super().__init__(node_ids, area)
        self.positions[0] = (0.0, 0.0)
        self.positions[1] = (100.0, 0.0)
        self._schedule = schedule  # list of (time, x-position of node 1)
        self._now = 0.0

    def step(self, dt):
        self._now += dt
        x = 100.0
        for when, pos in self._schedule:
            if self._now >= when:
                x = pos
        self.positions[1] = (x, 0.0)


def build_shuttle(schedule):
    sched = EventScheduler()
    area = Area(200, 200)
    model = Shuttle([0, 1], area, schedule)
    mgr = MobilityManager(sched, area, [model], comm_range=10.0)
    return ContactTracer(mgr), mgr


class TestTracer:
    def test_single_contact_detected(self):
        # In range during [3, 7).
        tracer, _ = build_shuttle([(3, 5.0), (7, 100.0)])
        contacts = tracer.run(20.0, tick=1.0)
        assert len(contacts) == 1
        c = contacts[0]
        assert (c.a, c.b) == (0, 1)
        assert c.start == 3.0
        assert c.end == 7.0
        assert c.duration == pytest.approx(4.0)

    def test_multiple_contacts(self):
        tracer, _ = build_shuttle([(2, 5.0), (5, 100.0), (10, 5.0),
                                   (14, 100.0)])
        contacts = tracer.run(20.0, tick=1.0)
        assert len(contacts) == 2
        assert contacts[0].duration == pytest.approx(3.0)
        assert contacts[1].duration == pytest.approx(4.0)

    def test_open_contact_closed_at_horizon(self):
        tracer, _ = build_shuttle([(5, 5.0)])  # never leaves
        contacts = tracer.run(20.0, tick=1.0)
        assert len(contacts) == 1
        assert contacts[0].end == 20.0

    def test_callbacks_fire(self):
        events = []
        tracer, mgr = build_shuttle([(3, 5.0), (7, 100.0)])
        bus = TelemetryBus()
        bus.subscribe(ContactStart.topic, lambda e: events.append(
            ("start", e.a, e.b, e.time)))
        bus.subscribe(ContactEnd.topic, lambda e: events.append(
            ("end", e.a, e.b, e.started, e.time)))
        tracer.subscribe(bus)
        tracer.run(20.0, tick=1.0)
        assert ("start", 0, 1, 3.0) in events
        assert ("end", 0, 1, 3.0, 7.0) in events

    @pytest.mark.parametrize("subscribe_end", [False, True])
    def test_unrouted_starts_are_not_emitted(self, subscribe_end):
        # Two contacts, the second still open at the horizon: a bus with
        # no start subscriber sees one emit per end and none per start.
        tracer, _ = build_shuttle([(3, 5.0), (7, 100.0), (12, 5.0)])
        bus = TelemetryBus()
        ends = []
        if subscribe_end:
            bus.subscribe(ContactEnd.topic, ends.append)
        tracer.subscribe(bus)
        contacts = tracer.run(20.0, tick=1.0)
        assert len(contacts) == 2
        assert bus.events_emitted == len(contacts)
        if subscribe_end:
            assert [(e.started, e.time) for e in ends] == [
                (c.start, c.end) for c in contacts]

    def test_no_contact_when_never_in_range(self):
        tracer, _ = build_shuttle([])
        assert tracer.run(10.0) == []

    def test_invalid_run_arguments(self):
        tracer, _ = build_shuttle([])
        with pytest.raises(ValueError):
            tracer.run(0.0)
        with pytest.raises(ValueError):
            tracer.run(10.0, tick=0.0)


class TestTickClock:
    """Tick instants come from the tick count, not a running sum: ten
    0.1 s ticks summed overshoot 1.0 by 1.1e-16 s, which used to add an
    eleventh, 1e-16 s mobility step."""

    @staticmethod
    def _record(mobility, tracer):
        steps, scans = [], []
        step, scan = mobility.step, tracer.scan
        mobility.step = lambda dt: (steps.append(dt), step(dt))
        tracer.scan = lambda now: (scans.append(now), scan(now))
        return steps, scans

    def _check(self, steps, scans):
        assert len(steps) == 10
        assert min(steps) > 0.09
        assert len(scans) == 11
        assert scans[0] == 0.0
        assert scans[-1] == 1.0

    def test_tracer_run(self):
        tracer, mgr = build_shuttle([(0.5, 5.0)])
        steps, scans = self._record(mgr, tracer)
        contacts = tracer.run(1.0, tick=0.1)
        self._check(steps, scans)
        assert contacts[-1].end == 1.0

    def test_contact_simulation(self):
        sim = ContactSimulation(ContactSimConfig(
            n_sensors=10, duration_s=1.0, tick_s=0.1))
        steps, scans = self._record(sim.mobility, sim._tracer)
        sim.run()
        self._check(steps, scans)


class TestStatistics:
    def test_statistics(self):
        contacts = [Contact(0, 1, 0.0, 4.0), Contact(0, 2, 1.0, 3.0)]
        stats = contact_statistics(contacts)
        assert stats["count"] == 2
        assert stats["mean_duration_s"] == pytest.approx(3.0)
        assert stats["total_contact_s"] == pytest.approx(6.0)

    def test_empty_statistics(self):
        stats = contact_statistics([])
        assert stats["count"] == 0

    def test_zone_field_produces_contacts(self):
        sched = EventScheduler()
        area = Area(150, 150)
        from repro.mobility import ZoneGridMobility
        model = ZoneGridMobility(list(range(30)), area, random.Random(4))
        mgr = MobilityManager(sched, area, [model], comm_range=10.0)
        tracer = ContactTracer(mgr)
        contacts = tracer.run(300.0, tick=1.0)
        assert len(contacts) > 10
        for c in contacts:
            assert c.duration >= 0.0
            assert c.a < c.b


class _ReferenceTracer:
    """The per-node scan: pairs from ``neighbors_of``, diffed as sets.

    Starts are emitted before ends, each in sorted pair order; open
    contacts close in sorted pair order.
    """

    def __init__(self, mobility, bus):
        self._mobility = mobility
        self._bus = bus
        self._active = {}
        self.contacts = []

    def scan(self, now):
        current = set()
        for node in self._mobility.node_ids:
            for other in self._mobility.neighbors_of(node):
                if other > node:
                    current.add((node, other))
        changed = sorted(current.symmetric_difference(self._active))
        for pair in changed:
            if pair in current:
                self._active[pair] = now
                self._bus.emit(ContactStart(time=now, a=pair[0], b=pair[1]))
        for pair in changed:
            if pair not in current:
                started = self._active.pop(pair)
                self.contacts.append(Contact(pair[0], pair[1], started, now))
                self._bus.emit(ContactEnd(time=now, a=pair[0], b=pair[1],
                                          started=started))

    def close(self, now):
        for (a, b), started in sorted(self._active.items()):
            self.contacts.append(Contact(a, b, started, now))
            self._bus.emit(ContactEnd(time=now, a=a, b=b, started=started))
        self._active.clear()


def _recording_bus(wildcard=False):
    events = []
    bus = TelemetryBus()
    if wildcard:
        bus.subscribe(ALL_TOPICS, events.append)
    else:
        bus.subscribe(ContactStart.topic, events.append)
        bus.subscribe(ContactEnd.topic, events.append)
    return bus, events


def _assert_scan_matches_reference(mgr, n_steps, wildcard=False):
    bus, events = _recording_bus(wildcard)
    tracer = ContactTracer(mgr)
    tracer.subscribe(bus)
    ref_bus, ref_events = _recording_bus()
    ref = _ReferenceTracer(mgr, ref_bus)
    for tick in range(n_steps + 1):
        if tick:
            mgr.step(1.0)
        tracer.scan(float(tick))
        ref.scan(float(tick))
        assert events == ref_events
    tracer.close(float(n_steps))
    ref.close(float(n_steps))
    assert events == ref_events
    assert tracer.contacts == ref.contacts


class _Scripted(MobilityModel):
    """Plants one scripted frame of coordinates per step.

    The coordinates bypass the area check, so the frames can put nodes
    on both sides of the origin and exactly on cell boundaries.
    """

    def __init__(self, node_ids, area, frames):
        super().__init__(node_ids, area)
        self._frames = [np.array(f, dtype=float) for f in frames]
        self.positions = self._frames[0].copy()
        self._tick = 0

    def step(self, dt):
        self._tick = min(self._tick + 1, len(self._frames) - 1)
        self.positions = self._frames[self._tick].copy()


class TestScanMatchesPerNodeReference:
    """``ContactTracer`` emits exactly the events and contacts of a
    tracer that builds its pairs from per-node ``neighbors_of`` calls."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n_walkers=st.integers(1, 39),
           n_steps=st.integers(1, 20),
           comm_range=st.sampled_from([5.0, 10.0, 17.5]),
           speed_max=st.floats(0.0, 8.0),
           wildcard=st.booleans())
    def test_random_walk(self, seed, n_walkers, n_steps, comm_range,
                         speed_max, wildcard):
        rng = random.Random(seed)
        area = Area(60, 60)
        sink = StationaryMobility([0], area, rng=rng)
        walkers = RandomWalkMobility(list(range(1, n_walkers + 1)), area,
                                     rng, speed_min=0.0, speed_max=speed_max)
        mgr = MobilityManager(EventScheduler(), area, [sink, walkers],
                              comm_range=comm_range)
        _assert_scan_matches_reference(mgr, n_steps, wildcard)

    def test_negative_coordinates(self, wildcard=False):
        # Nodes straddle the origin and sit on cell edges (multiples of
        # the 10 m range), at exactly the range and just beyond it.
        frames = [
            [(-5.0, -5.0), (5.0, 5.0), (-10.0, 0.0), (0.0, -10.0),
             (-20.0, -20.0)],
            [(-5.0, -5.0), (4.9, -5.0), (-10.0, 0.0), (0.0, 0.0),
             (-20.0, -10.0)],
            [(-10.0, -10.0), (0.0, -10.0), (-10.0, 0.0), (-10.0, 0.0),
             (-20.0, -10.0)],
            [(-0.5, -0.5), (9.5, -0.5), (-10.6, -0.5), (-0.5, 9.5),
             (-30.0, -30.0)],
            [(-5.0, -5.0), (5.0, 5.0), (-10.0, 0.0), (0.0, -10.0),
             (-20.0, -20.0)],
        ]
        area = Area(100, 100)
        model = _Scripted(list(range(5)), area, frames)
        mgr = MobilityManager(EventScheduler(), area, [model],
                              comm_range=10.0)
        _assert_scan_matches_reference(mgr, len(frames) - 1, wildcard)

    def test_negative_coordinates_with_a_wildcard(self):
        self.test_negative_coordinates(wildcard=True)
