"""Unit tests for the telemetry substrate (repro.obs)."""

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.bus import ALL_TOPICS, TOPICS, TelemetryBus
from repro.obs.events import (
    EVENT_TYPES,
    ContactEnd,
    FrameTx,
    MessageDelivered,
    PhaseExit,
    QueueDrop,
    RadioWake,
    event_to_dict,
)
from repro.obs.export import (
    CSV_COLUMNS,
    CsvTraceWriter,
    JsonlTraceWriter,
    read_trace,
    writer_for_path,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import render_report
from repro.obs.spans import Span, SpanTracker


def _tx(time=1.0, node=5, kind="data", bits=1000):
    return FrameTx(time=time, node=node, frame_kind=kind, src=node,
                   dst=None, message_id=7, bits=bits)


# ----------------------------------------------------------------------
# bus
# ----------------------------------------------------------------------
class TestTelemetryBus:
    def test_routes_to_topic_subscribers(self):
        bus = TelemetryBus()
        got = []
        bus.subscribe(FrameTx.topic, got.append)
        event = _tx()
        bus.emit(event)
        assert got == [event]
        assert bus.events_emitted == 1

    def test_other_topics_do_not_leak(self):
        bus = TelemetryBus()
        got = []
        bus.subscribe(QueueDrop.topic, got.append)
        bus.emit(_tx())
        assert got == []

    def test_wildcard_receives_everything_after_topic_subs(self):
        bus = TelemetryBus()
        order = []
        bus.subscribe(FrameTx.topic, lambda e: order.append("topic"))
        bus.subscribe(ALL_TOPICS, lambda e: order.append("wild"))
        bus.emit(_tx())
        assert order == ["topic", "wild"]

    def test_dispatch_is_subscription_ordered(self):
        bus = TelemetryBus()
        order = []
        bus.subscribe(FrameTx.topic, lambda e: order.append(1))
        bus.subscribe(FrameTx.topic, lambda e: order.append(2))
        bus.emit(_tx())
        assert order == [1, 2]

    def test_unknown_topic_rejected(self):
        bus = TelemetryBus()
        with pytest.raises(ValueError, match="unknown telemetry topic"):
            bus.subscribe("frame.txx", lambda e: None)

    def test_unsubscribe(self):
        bus = TelemetryBus()
        got = []
        bus.subscribe(FrameTx.topic, got.append)
        bus.unsubscribe(FrameTx.topic, got.append)
        bus.emit(_tx())
        assert got == []
        assert bus.subscriber_count(FrameTx.topic) == 0

    def test_unsubscribe_unknown_subscriber_raises(self):
        bus = TelemetryBus()
        with pytest.raises(ValueError, match="not registered"):
            bus.unsubscribe(FrameTx.topic, lambda e: None)

    def test_nested_emit_dispatches_fully_before_outer_wildcards(self):
        # The contact-level exchange emits from inside a topic
        # subscriber and relies on this order.
        bus = TelemetryBus()
        order = []
        inner = QueueDrop(time=1.0, node=5, message_id=7, cause="overflow",
                          ftd=0.5)

        def on_tx(event):
            order.append(("tx", event.topic))
            bus.emit(inner)

        bus.subscribe(FrameTx.topic, on_tx)
        bus.subscribe(QueueDrop.topic,
                      lambda e: order.append(("drop", e.topic)))
        bus.subscribe(ALL_TOPICS, lambda e: order.append(("wild", e.topic)))
        bus.emit(_tx())
        assert order == [("tx", "frame.tx"), ("drop", "queue.drop"),
                         ("wild", "queue.drop"), ("wild", "frame.tx")]
        assert bus.events_emitted == 2

    @pytest.mark.parametrize("topic", [FrameTx.topic, ALL_TOPICS])
    def test_self_unsubscribe_during_dispatch_keeps_the_rest(self, topic):
        bus = TelemetryBus()
        got = []

        def first(event):
            got.append("a")
            bus.unsubscribe(topic, first)

        bus.subscribe(topic, first)
        bus.subscribe(topic, lambda e: got.append("b"))
        bus.emit(_tx())
        assert got == ["a", "b"]
        bus.emit(_tx())
        assert got == ["a", "b", "b"]

    @pytest.mark.parametrize("topic", [FrameTx.topic, ALL_TOPICS])
    def test_subscriber_added_during_dispatch_gets_the_next_event(
            self, topic):
        bus = TelemetryBus()
        got = []

        def adder(event):
            got.append(("adder", event.time))
            if event.time == 1.0:
                bus.subscribe(topic, lambda e: got.append(("late", e.time)))

        bus.subscribe(FrameTx.topic, adder)
        bus.emit(_tx(time=1.0))
        bus.emit(_tx(time=2.0))
        assert got == [("adder", 1.0), ("adder", 2.0), ("late", 2.0)]

    @pytest.mark.parametrize("topic", [FrameTx.topic, ALL_TOPICS])
    def test_routes_follows_subscriptions(self, topic):
        bus = TelemetryBus()
        assert not bus.routes(FrameTx.topic)
        first, second = [], []
        bus.subscribe(topic, first.append)
        bus.subscribe(topic, second.append)
        assert bus.routes(FrameTx.topic)
        # A wildcard routes every topic; a topic subscriber only its own.
        assert bus.routes(QueueDrop.topic) == (topic == ALL_TOPICS)
        bus.unsubscribe(topic, first.append)
        assert bus.routes(FrameTx.topic)
        bus.unsubscribe(topic, second.append)
        assert not bus.routes(FrameTx.topic)
        assert not bus.routes(QueueDrop.topic)

    def test_routes_reads_an_emptied_topic_through_its_wildcards(self):
        bus = TelemetryBus()
        bus.subscribe(FrameTx.topic, print)
        bus.unsubscribe(FrameTx.topic, print)
        bus.subscribe(ALL_TOPICS, print)
        assert bus.routes(FrameTx.topic)
        bus.unsubscribe(ALL_TOPICS, print)
        assert not bus.routes(FrameTx.topic)

    def test_topics_is_closed_set(self):
        assert "frame.tx" in TOPICS
        assert "fault.inject" in TOPICS
        assert "fault.recover" in TOPICS
        assert len(TOPICS) == 14


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
def _sample_kwargs(cls):
    """Distinct plain values for every field of ``cls``, by annotation."""
    hints = typing.get_type_hints(cls)
    out = {}
    for i, field in enumerate(dataclasses.fields(cls)):
        args = [a for a in typing.get_args(hints[field.name])
                if a is not type(None)]
        kind = args[0] if args else hints[field.name]
        out[field.name] = {float: i + 0.25, int: i, str: f"s{i}",
                           bool: i % 2 == 1}[kind]
    return out


def _dataclass_copy(cls):
    """``cls`` rebuilt by ``dataclasses`` with its own frozen ``__init__``."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)],
        namespace={"topic": cls.topic}, frozen=True)


class TestEvents:
    def test_event_to_dict_puts_topic_first(self):
        d = event_to_dict(_tx())
        assert list(d)[0] == "topic"
        assert d["topic"] == "frame.tx"
        assert d["bits"] == 1000

    def test_contact_end_duration(self):
        event = ContactEnd(time=30.0, a=1, b=2, started=10.0)
        assert event.duration == pytest.approx(20.0)

    def test_events_are_frozen(self):
        for cls in EVENT_TYPES:
            kwargs = _sample_kwargs(cls)
            event = cls(**kwargs)
            for name in list(kwargs) + ["extra"]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(event, name, 0)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(event, name)
            assert event_to_dict(event) == {"topic": cls.topic, **kwargs}


@pytest.mark.parametrize("cls", EVENT_TYPES, ids=lambda cls: cls.__name__)
class TestFrozenEvents:
    def test_positional_and_keyword_construction_agree(self, cls):
        kwargs = _sample_kwargs(cls)
        values = list(kwargs.values())
        event = cls(**kwargs)
        assert cls(*values) == event
        assert cls(values[0], **dict(list(kwargs.items())[1:])) == event

    def test_missing_or_unknown_keyword_raises(self, cls):
        kwargs = _sample_kwargs(cls)
        for name in kwargs:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in kwargs.items() if k != name})
        with pytest.raises(TypeError):
            cls(**kwargs, unknown=1)
        with pytest.raises(TypeError):
            cls(*kwargs.values(), 1)

    def test_matches_a_dataclass_built_copy(self, cls):
        kwargs = _sample_kwargs(cls)
        event, ref = cls(**kwargs), _dataclass_copy(cls)(**kwargs)
        assert repr(event) == repr(ref)
        assert hash(event) == hash(ref)
        assert list(event_to_dict(event).items()) == list(
            event_to_dict(ref).items())
        assert [f.name for f in dataclasses.fields(event)] == [
            f.name for f in dataclasses.fields(ref)]
        assert list(cls.__dataclass_fields__) == ["topic", *kwargs]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_only_goes_up(self):
        c = Counter()
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.5)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_buckets_and_mean(self):
        h = Histogram(bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert h.mean() == pytest.approx(55.5 / 3)
        assert Histogram().mean() is None

    @pytest.mark.parametrize("value, bucket", [
        (1.0, 0),            # equal to a bound: that bound's bucket
        (10.0, 1),
        (0.5, 0),            # below the first bound
        (50.0, 2),           # above the last: the overflow bucket
        (-math.inf, 0),
        (math.inf, 2),
        (math.nan, 2),       # compares false with every bound
    ])
    def test_histogram_bucket_edges(self, value, bucket):
        h = Histogram(bounds=(1.0, 10.0))
        h.observe(value)
        assert h.counts == [int(i == bucket) for i in range(3)]
        assert h.count == 1

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 1.0))

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z") is reg.histogram("z")

    def test_bound_registry_tallies_bus_events(self):
        bus = TelemetryBus()
        reg = MetricsRegistry()
        reg.bind(bus)
        bus.emit(_tx(bits=400))
        bus.emit(_tx(bits=600))
        bus.emit(QueueDrop(time=2.0, node=1, message_id=3,
                           cause="overflow", ftd=0.9))
        bus.emit(PhaseExit(time=5.0, node=1, phase="async",
                           duration_s=1.5, outcome="advance"))
        bus.emit(RadioWake(time=9.0, node=1, slept_s=4.0, lpl=False))
        snap = reg.as_dict()
        assert snap["counters"]["frames_tx.data"] == 2
        assert snap["counters"]["bits_sent"] == 1000
        assert snap["counters"]["queue_drops.overflow"] == 1
        assert snap["counters"]["phase.async.advance"] == 1
        assert snap["counters"]["radio_wakes.full"] == 1
        assert snap["histograms"]["sleep_duration_s"]["count"] == 1

    def test_snapshot_is_json_plain_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        snap = reg.as_dict()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must not raise


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_phase_exit_becomes_span(self):
        bus = TelemetryBus()
        tracker = SpanTracker()
        tracker.subscribe(bus)
        bus.emit(PhaseExit(time=10.0, node=4, phase="sync",
                           duration_s=2.5, outcome="confirmed"))
        (span,) = tracker.spans("sync")
        assert span == Span(node=4, phase="sync", start=7.5, end=10.0,
                            outcome="confirmed")
        assert span.duration_s == pytest.approx(2.5)

    def test_radio_wake_becomes_sleep_span(self):
        bus = TelemetryBus()
        tracker = SpanTracker()
        tracker.subscribe(bus)
        bus.emit(RadioWake(time=20.0, node=2, slept_s=6.0, lpl=True))
        (span,) = tracker.spans("sleep")
        assert span.start == pytest.approx(14.0)
        assert span.outcome == "lpl"

    def test_summary_survives_eviction(self):
        bus = TelemetryBus()
        tracker = SpanTracker(max_spans=2)
        tracker.subscribe(bus)
        for i in range(5):
            bus.emit(PhaseExit(time=float(i + 1), node=1, phase="async",
                               duration_s=1.0, outcome="advance"))
        assert len(tracker) == 2  # ring evicted
        summary = tracker.summary()
        assert summary["async"]["count"] == 5  # aggregate did not
        assert summary["async"]["mean_s"] == pytest.approx(1.0)
        assert summary["async"]["outcomes"] == {"advance": 5}



_span_floats = st.floats(width=64)

#: Streams of the two events spans are built from.
span_events = st.lists(st.one_of(
    st.builds(PhaseExit, time=_span_floats, node=st.integers(0, 5),
              phase=st.sampled_from(["async", "sync", "sleep"]),
              duration_s=_span_floats,
              outcome=st.sampled_from(["advance", "busy", "confirmed"])),
    st.builds(RadioWake, time=_span_floats, node=st.integers(0, 5),
              slept_s=_span_floats, lpl=st.booleans())), max_size=40)


@given(span_events)
def test_ring_free_tracker_summarizes_as_the_ring_does(events):
    bus = TelemetryBus()
    with_ring, ring_free = SpanTracker(), SpanTracker(max_spans=0)
    with_ring.subscribe(bus)
    ring_free.subscribe(bus)
    for event in events:
        bus.emit(event)
    assert json.dumps(ring_free.summary()) == json.dumps(with_ring.summary())
    assert len(with_ring) == len(events)
    assert len(ring_free) == 0 and ring_free.spans() == []


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
class TestExport:
    def _emit_some(self, bus):
        bus.emit(_tx(time=1.0))
        bus.emit(QueueDrop(time=2.0, node=3, message_id=9,
                           cause="threshold", ftd=0.8))
        bus.emit(MessageDelivered(time=3.0, node=0, message_id=9,
                                  origin=3, delay_s=1.5, hops=2))

    def test_jsonl_round_trip(self, tmp_path):
        bus = TelemetryBus()
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            writer.subscribe(bus)
            self._emit_some(bus)
        events = read_trace(path)
        assert [e["topic"] for e in events] == [
            "frame.tx", "queue.drop", "message.delivered"]
        assert events[0]["bits"] == 1000
        assert events[2]["delay_s"] == 1.5

    def test_csv_round_trip_restores_types(self, tmp_path):
        bus = TelemetryBus()
        path = tmp_path / "trace.csv"
        with CsvTraceWriter(path) as writer:
            writer.subscribe(bus)
            self._emit_some(bus)
        events = read_trace(path)
        assert events[0]["node"] == 5 and isinstance(events[0]["node"], int)
        assert events[1]["ftd"] == pytest.approx(0.8)
        assert events[2]["hops"] == 2

    def test_csv_and_jsonl_agree(self, tmp_path):
        jsonl_bus, csv_bus = TelemetryBus(), TelemetryBus()
        with JsonlTraceWriter(tmp_path / "t.jsonl") as jw, \
                CsvTraceWriter(tmp_path / "t.csv") as cw:
            jw.subscribe(jsonl_bus)
            cw.subscribe(csv_bus)
            self._emit_some(jsonl_bus)
            self._emit_some(csv_bus)
        jl = read_trace(tmp_path / "t.jsonl")
        cv = read_trace(tmp_path / "t.csv")
        # CSV drops explicit nulls (empty cells); compare non-null fields.
        assert [{k: v for k, v in e.items() if v is not None}
                for e in jl] == cv

    def test_writer_for_path_picks_format(self, tmp_path):
        assert isinstance(writer_for_path(tmp_path / "a.csv"), CsvTraceWriter)
        assert isinstance(writer_for_path(tmp_path / "a.jsonl"),
                          JsonlTraceWriter)

    def test_closed_writer_detaches_from_bus(self, tmp_path):
        bus = TelemetryBus()
        writer = JsonlTraceWriter(tmp_path / "t.jsonl")
        writer.subscribe(bus)
        writer.close()
        bus.emit(_tx())  # must not raise: the writer unsubscribed
        assert writer.events_written == 0
        with pytest.raises(ValueError, match="closed"):
            writer.write(_tx())

    def test_csv_columns_start_with_topic_and_time(self):
        assert CSV_COLUMNS[:2] == ["topic", "time"]

    def test_csv_writer_rejects_fields_outside_the_header(self, tmp_path):
        @dataclasses.dataclass(frozen=True)
        class Tagged(FrameTx):
            tag: str = ""

        with CsvTraceWriter(tmp_path / "t.csv") as writer:
            with pytest.raises(ValueError, match="tag"):
                writer.write(Tagged(time=1.0, node=5, frame_kind="data",
                                    src=5, dst=None, message_id=7, bits=8))


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
class TestReport:
    def test_report_sections_from_synthetic_trace(self):
        events = [
            event_to_dict(_tx(time=1.0)),
            event_to_dict(QueueDrop(time=2.0, node=3, message_id=9,
                                    cause="threshold", ftd=0.8)),
            event_to_dict(PhaseExit(time=4.0, node=5, phase="async",
                                    duration_s=2.0, outcome="advance")),
            event_to_dict(MessageDelivered(time=6.0, node=0, message_id=9,
                                           origin=3, delay_s=1.5, hops=2)),
        ]
        text = render_report(events)
        assert "trace events: 4" in text
        assert "data" in text  # frame kind row
        assert "threshold" in text
        assert "async" in text and "advance=1" in text
        assert "deliveries" in text

    def test_empty_trace(self):
        assert "trace events: 0" in render_report([])
