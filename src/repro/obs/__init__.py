"""Unified telemetry: event bus, metrics registry, spans, exporters.

The observability story in one place (see docs/OBSERVABILITY.md):

* :class:`~repro.obs.bus.TelemetryBus` — a process-local publish/
  subscribe bus with typed topics (frame tx/rx/collision, contact
  start/end, queue drops with cause, protocol-phase enter/exit,
  sleep/wake, message generation/delivery).  Instrumented layers hold an
  optional bus reference; with no bus attached the instrumentation is a
  single ``is None`` attribute check.
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms fed by bus subscribers.
* :class:`~repro.obs.spans.SpanTracker` — per-node protocol-phase spans
  (asynchronous handshake, synchronous SCHEDULE→ACK round, sleep
  interval) with durations in simulated time.
* :mod:`~repro.obs.export` — JSONL / CSV trace writers and loaders.
* :class:`~repro.obs.recorder.TraceRecorder` — a bounded in-memory ring
  of frame events plus the message-journey / node-activity /
  channel-usage reports over it.
* :mod:`~repro.obs.report` — the tables behind ``dftmsn report``: a
  trace replayed through the registry and the span tracker.

This package is a leaf: it never imports the simulation layers, so any
layer (DES core, radio, protocol, contact, harness) can emit into it
without import cycles.
"""

from repro.obs.bus import TOPICS, TelemetryBus
from repro.obs.events import (
    ContactEnd,
    ContactStart,
    FrameCollision,
    FrameRx,
    FrameTx,
    MessageDelivered,
    MessageGenerated,
    PhaseEnter,
    PhaseExit,
    QueueDrop,
    RadioSleep,
    RadioWake,
    TelemetryEvent,
    event_to_dict,
)
from repro.obs.export import (
    CsvTraceWriter,
    JsonlTraceWriter,
    read_trace,
    writer_for_path,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import render_report
from repro.obs.spans import Span, SpanTracker

__all__ = [
    "TOPICS",
    "TelemetryBus",
    "TelemetryEvent",
    "FrameTx",
    "FrameRx",
    "FrameCollision",
    "ContactStart",
    "ContactEnd",
    "QueueDrop",
    "PhaseEnter",
    "PhaseExit",
    "RadioSleep",
    "RadioWake",
    "MessageGenerated",
    "MessageDelivered",
    "event_to_dict",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracker",
    "JsonlTraceWriter",
    "CsvTraceWriter",
    "writer_for_path",
    "read_trace",
    "render_report",
]
