"""Byte-identical packet-level traces against committed goldens.

``tests/data/trace_goldens.json`` pins the sha256 of one seeded
packet-level run's trace in JSONL and in CSV.  A change to the trace
writers that is meant to be byte-neutral must keep both.  The test also
asserts which event kinds the pinned trace holds, so the pin cannot
quietly cover fewer of them.
"""

import json

import pytest

from tests.data.regen_trace_goldens import (
    FORMATS,
    GOLDEN_PATH,
    sha256,
    write_trace,
)

from repro.obs.export import read_trace

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
    assert sha256(write_trace(tmp_path, fmt)) == goldens[f"{fmt}_sha256"]


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
