"""Render per-phase / per-drop-cause tables from a trace.

Backs the ``dftmsn report`` subcommand: takes the plain event dicts a
trace file loads into (see :func:`repro.obs.export.read_trace`), replays
them onto a fresh bus through the live aggregators
(:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.spans.SpanTracker`) and formats their snapshots, so a
run's ``result.telemetry`` and the report of its trace agree by
construction.  Floats are rounded to three decimals so seeded golden
files stay stable across platforms.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple, cast

from repro.obs.bus import TelemetryBus
from repro.obs.events import event_from_dict
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracker


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _table(header: Tuple[str, ...], rows: Iterable[Tuple[str, ...]]) -> List[str]:
    all_rows = [header] + [tuple(row) for row in rows]
    widths = [max(len(row[col]) for row in all_rows)
              for col in range(len(header))]
    lines = []
    for i, row in enumerate(all_rows):
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return lines


def render_report(events: List[Dict[str, object]]) -> str:
    """Human-readable summary tables for a list of trace event dicts."""
    bus = TelemetryBus()
    registry = MetricsRegistry()
    registry.bind(bus)
    tracker = SpanTracker(max_spans=0)  # the summary is all we print
    tracker.subscribe(bus)
    for data in events:
        bus.emit(event_from_dict(data))
    metrics = registry.as_dict()
    counters = cast(Mapping[str, Any], metrics["counters"])
    histograms = cast(Mapping[str, Any], metrics["histograms"])

    def count(name: str) -> str:
        return str(counters.get(name, 0))

    def keys(*prefixes: str) -> List[str]:
        """Sorted ``key`` of every counter named ``<prefix>.<key>``."""
        return sorted({name[len(prefix) + 1:] for name in counters
                       for prefix in prefixes
                       if name.startswith(prefix + ".")})

    def mean(name: str) -> str:
        return _fmt(histograms[name]["total"] / histograms[name]["count"])

    lines: List[str] = [f"trace events: {bus.events_emitted}", ""]

    lines.append("frames by kind")
    kinds = keys("frames_tx", "frames_rx", "frames_collision")
    if kinds:
        lines.extend(_table(
            ("kind", "tx", "rx", "collisions"),
            ((kind, count(f"frames_tx.{kind}"), count(f"frames_rx.{kind}"),
              count(f"frames_collision.{kind}"))
             for kind in kinds)))
    else:
        lines.append("  (no frame events)")
    lines.append("")

    lines.append("queue drops by cause")
    causes = keys("queue_drops")
    if causes:
        lines.extend(_table(
            ("cause", "drops"),
            ((cause, count(f"queue_drops.{cause}")) for cause in causes)))
    else:
        lines.append("  (no queue drops)")
    lines.append("")

    # Only rendered when a fault model ran, so fault-free traces keep
    # their historical report.
    models = keys("faults_injected", "faults_recovered")
    if models:
        lines.append("faults by model")
        lines.extend(_table(
            ("model", "injected", "recovered"),
            ((model, count(f"faults_injected.{model}"),
              count(f"faults_recovered.{model}"))
             for model in models)))
        lines.append("")

    lines.append("protocol phase spans")
    spans: Mapping[str, Mapping[str, Any]] = tracker.summary()
    if spans:
        lines.extend(_table(
            ("phase", "count", "total_s", "mean_s", "outcomes"),
            ((phase, str(stats["count"]), _fmt(stats["total_s"]),
              _fmt(stats["mean_s"]),
              " ".join(f"{name}={n}" for name, n in stats["outcomes"].items()))
             for phase, stats in spans.items())))
    else:
        lines.append("  (no phase spans)")
    lines.append("")

    lines.append("contacts")
    lines.append(f"  started: {count('contacts_started')}  "
                 f"ended: {count('contacts_ended')}")
    if "contact_duration_s" in histograms:
        lines.append(f"  mean duration: {mean('contact_duration_s')} s")
    lines.append("")

    generated = counters.get("messages_generated", 0)
    delivered = counters.get("messages_delivered", 0)
    lines.append("deliveries")
    lines.append(f"  generated: {generated}  delivered: {delivered}")
    if delivered:
        lines.append(f"  mean delay: {mean('delivery_delay_s')} s  "
                     f"mean hops: {mean('delivery_hops')}")
        if generated:
            lines.append(f"  delivery ratio: {_fmt(delivered / generated)}")
    lines.append("")
    return "\n".join(lines)
