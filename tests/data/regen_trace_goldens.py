#!/usr/bin/env python
"""Regenerate tests/data/trace_goldens.json (packet-level trace bytes).

The goldens pin the sha256 of one short seeded packet-level
``Simulation`` trace, written once as JSONL and once as CSV.  The run
carries two fault models, so its trace holds every packet-level topic:
``fault.inject``/``fault.recover`` (including the network-wide radio
impairment with ``node=None``), broadcast frames with ``dst=None``,
``queue.drop`` (purge and threshold), LPL sleep/wake, collisions and
deliveries.  The goldens also pin the sha256 of the run's
``result.telemetry`` (the metrics snapshot and the span summary), which
both formats' runs must reproduce.  ``tests/test_trace_goldens.py``
replays the run, asserts the bytes, the telemetry and the topic set, so
a change to the trace writers or the metric feeders that is meant to be
byte-neutral must keep them.  Regenerate only after an
intentional, understood change to the trace format or to seeded
semantics.  The invariant checker adds no events, so the bytes are the
same with it on or off::

    PYTHONPATH=src python tests/data/regen_trace_goldens.py
"""

import hashlib
import json
import pathlib
import tempfile

from repro.network.config import SimulationConfig
from repro.network.faults import FaultSpec
from repro.network.simulation import Simulation

GOLDEN_PATH = pathlib.Path(__file__).parent / "trace_goldens.json"

#: The traced run: 20 sensors, 2 sinks, 1000 s, a radio impairment over
#: [200, 500] s and transient outages that purge buffers on reboot.
TRACE_CONFIG = dict(
    protocol="opt", duration_s=1000.0, n_sensors=20, n_sinks=2, seed=11,
    faults=(FaultSpec(kind="radio", intensity=0.3, start_s=200.0,
                      end_s=500.0),
            FaultSpec(kind="outages", intensity=0.4, mean_downtime_s=100.0)))

#: Trace file name per pinned format.
FORMATS = {"jsonl": "trace.jsonl", "csv": "trace.csv"}


def run_traced(directory, fmt):
    """Run :data:`TRACE_CONFIG` traced in format ``fmt``.

    Returns the trace file path and the run's ``result.telemetry``.
    """
    path = pathlib.Path(directory) / FORMATS[fmt]
    result = Simulation(SimulationConfig(trace_path=str(path),
                                         **TRACE_CONFIG)).run()
    return path, result.telemetry


def write_trace(directory, fmt):
    """Run :data:`TRACE_CONFIG` traced in format ``fmt``; the file path."""
    return run_traced(directory, fmt)[0]


def sha256(path):
    """sha256 of the file at ``path``."""
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def telemetry_sha256(telemetry):
    """sha256 of a ``result.telemetry`` dict as canonical JSON."""
    text = json.dumps(telemetry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    goldens = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in FORMATS:
            path, telemetry = run_traced(tmp, fmt)
            goldens[f"{fmt}_sha256"] = sha256(path)
            goldens["telemetry_sha256"] = telemetry_sha256(telemetry)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
