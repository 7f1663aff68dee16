"""Unit tests for contact detection."""

import random

import pytest

from repro.contact import Contact, ContactTracer
from repro.contact.detector import contact_statistics
from repro.des import EventScheduler
from repro.mobility import Area, MobilityManager, StationaryMobility
from repro.mobility.base import MobilityModel
from repro.obs.bus import TelemetryBus
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

    def test_no_contact_when_never_in_range(self):
        tracer, _ = build_shuttle([])
        assert tracer.run(10.0) == []

    def test_invalid_run_arguments(self):
        tracer, _ = build_shuttle([])
        with pytest.raises(ValueError):
            tracer.run(0.0)
        with pytest.raises(ValueError):
            tracer.run(10.0, tick=0.0)


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
