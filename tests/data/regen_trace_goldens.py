#!/usr/bin/env python
"""Regenerate tests/data/trace_goldens.json (packet-level trace bytes).

The goldens pin the sha256 of one short seeded packet-level
``Simulation`` trace, written once as JSONL and once as CSV.  The run
carries two fault models, so its trace holds every packet-level topic:
``fault.inject``/``fault.recover`` (including the network-wide radio
impairment with ``node=None``), broadcast frames with ``dst=None``,
``queue.drop`` (purge and threshold), LPL sleep/wake, collisions and
deliveries.  ``tests/test_trace_goldens.py`` replays the run, asserts
the bytes and the topic set, so a change to the trace writers that is
meant to be byte-neutral must keep them.  Regenerate only after an
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


def write_trace(directory, fmt):
    """Run :data:`TRACE_CONFIG` traced in format ``fmt``; the file path."""
    path = pathlib.Path(directory) / FORMATS[fmt]
    Simulation(SimulationConfig(trace_path=str(path), **TRACE_CONFIG)).run()
    return path


def sha256(path):
    """sha256 of the file at ``path``."""
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def main() -> None:
    goldens = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in FORMATS:
            goldens[f"{fmt}_sha256"] = sha256(write_trace(tmp, fmt))
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
