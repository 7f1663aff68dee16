"""Byte-identical packet-level traces against committed goldens.

``tests/data/trace_goldens.json`` pins the sha256 of one seeded
packet-level run's trace in JSONL and in CSV, and of that run's
``result.telemetry`` (metrics snapshot and span summary).  A change to
the trace writers or the metric feeders that is meant to be
byte-neutral must keep all three.  The test also
asserts which event kinds the pinned trace holds, so the pin cannot
quietly cover fewer of them.
"""

import json

import pytest

from tests.data.regen_trace_goldens import (
    FORMATS,
    GOLDEN_PATH,
    TRACE_CONFIG,
    run_traced,
    sha256,
    telemetry_sha256,
    write_trace,
)

from repro.network.config import SimulationConfig
from repro.network.simulation import Simulation
from repro.obs.export import read_trace
from repro.obs.spans import SLEEP_PHASE, Span, SpanTracker

#: Every packet-level topic; ``contact.*`` is emitted by the contact
#: level only.
PACKET_TOPICS = {
    "fault.inject", "fault.recover", "frame.collision", "frame.rx",
    "frame.tx", "message.delivered", "message.generated", "phase.enter",
    "phase.exit", "queue.drop", "radio.sleep", "radio.wake",
}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_traced_packet_run_bytes_match_golden(fmt, tmp_path, goldens):
    path, telemetry = run_traced(tmp_path, fmt)
    assert sha256(path) == goldens[f"{fmt}_sha256"]
    assert telemetry_sha256(telemetry) == goldens["telemetry_sha256"]


def test_pinned_trace_covers_every_packet_level_event_kind(tmp_path):
    events = read_trace(write_trace(tmp_path, "jsonl"))
    assert {e["topic"] for e in events} == PACKET_TOPICS
    faults = [e for e in events if e["topic"] == "fault.inject"]
    assert any(e["node"] is None for e in faults)  # network-wide
    assert {e["model"] for e in faults} == {"outages", "radio"}
    assert any(e["topic"] == "frame.tx" and e["dst"] is None
               for e in events)  # broadcast
    assert {e["cause"] for e in events if e["topic"] == "queue.drop"} \
        == {"purge", "threshold"}
    assert {e["lpl"] for e in events if e["topic"] == "radio.sleep"} \
        == {False, True}


def test_subscribed_span_ring_matches_the_trace(tmp_path):
    # The simulation keeps span aggregates only; a ring is one
    # subscription away and must hold the spans the trace describes.
    path = tmp_path / FORMATS["jsonl"]
    sim = Simulation(SimulationConfig(trace_path=str(path), **TRACE_CONFIG))
    tracker = SpanTracker()
    tracker.subscribe(sim.enable_telemetry())
    result = sim.run()
    rebuilt = []
    for e in read_trace(path):
        if e["topic"] == "phase.exit":
            rebuilt.append(Span(e["node"], e["phase"],
                                e["time"] - e["duration_s"], e["time"],
                                e["outcome"]))
        elif e["topic"] == "radio.wake":
            rebuilt.append(Span(e["node"], SLEEP_PHASE,
                                e["time"] - e["slept_s"], e["time"],
                                "lpl" if e["lpl"] else "full"))
    assert rebuilt and tracker.spans() == rebuilt
    assert tracker.summary() == result.telemetry["spans"]
    assert len(sim.spans) == 0
