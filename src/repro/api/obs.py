"""``repro.api.obs`` — telemetry, tracing, and run reports.

The observability sub-facade: the :class:`TelemetryBus` and its standard
consumers (:class:`MetricsRegistry`, :class:`SpanTracker`,
:class:`TimeSeriesProbe`), trace writers/readers, the
:class:`TraceRecorder` post-hoc analyses, and :func:`render_report`.
See ``docs/OBSERVABILITY.md``.

Every name here is also importable from flat ``repro.api`` (the
compatibility surface); see ``docs/API.md`` for the deprecation policy.
"""

from __future__ import annotations

from repro.metrics.timeseries import TimeSeriesProbe
from repro.obs.bus import TelemetryBus
from repro.obs.export import (
    CsvTraceWriter,
    JsonlTraceWriter,
    read_trace,
    writer_for_path,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (
    TraceRecorder,
    channel_usage,
    message_journey,
    node_activity,
)
from repro.obs.report import render_report
from repro.obs.spans import Span, SpanTracker
from repro.radio.frames import FrameKind

__all__ = [
    "TelemetryBus",
    "MetricsRegistry",
    "SpanTracker",
    "Span",
    "JsonlTraceWriter",
    "CsvTraceWriter",
    "writer_for_path",
    "read_trace",
    "render_report",
    "TimeSeriesProbe",
    "TraceRecorder",
    "FrameKind",
    "channel_usage",
    "message_journey",
    "node_activity",
]
