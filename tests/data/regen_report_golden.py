#!/usr/bin/env python
"""Regenerate the `dftmsn report` goldens in tests/data.

Three seeded runs are traced, read back and rendered:

* ``report_smoke.txt`` — a fault-free packet-level ``opt`` run (JSONL);
* ``report_faults.txt`` — a short packet-level run with all four fault
  models, read back from a CSV trace, so the "faults by model" table
  and the CSV reader are pinned;
* ``report_contact.txt`` — a contact-level ``fad`` run (JSONL), so the
  "contacts" block holds non-zero counts and a mean duration.

Run after an *intentional* change to the report format::

    PYTHONPATH=src python tests/data/regen_report_golden.py

``SMOKE`` must stay in sync with ``SMOKE`` in
``tests/test_obs_integration.py``.
"""

import pathlib
import tempfile

from repro.contact.simulator import ContactSimConfig, run_contact_simulation
from repro.network.config import SimulationConfig
from repro.network.faults import FaultSpec
from repro.network.simulation import run_simulation
from repro.obs.export import read_trace
from repro.obs.report import render_report

DATA = pathlib.Path(__file__).resolve().parent

SMOKE = dict(protocol="opt", n_sensors=10, n_sinks=2,
             duration_s=500.0, seed=5)

#: Every fault model, each striking inside the 1500 s run.
FAULTED = dict(
    protocol="opt", n_sensors=15, n_sinks=2, duration_s=1500.0, seed=3,
    faults=(FaultSpec(kind="outages", intensity=0.4, mean_downtime_s=100.0),
            FaultSpec(kind="radio", intensity=0.3, start_s=200.0,
                      end_s=500.0),
            FaultSpec(kind="sink_outage", intensity=0.5, start_s=300.0,
                      end_s=800.0),
            FaultSpec(kind="deaths", intensity=0.2)))

CONTACT = dict(policy="fad", seed=2, duration_s=2000.0, n_sensors=12,
               n_sinks=2)


def _packet(config, name):
    def trace(directory):
        path = pathlib.Path(directory) / name
        run_simulation(SimulationConfig(trace_path=str(path), **config))
        return path
    return trace


def _contact(directory):
    path = pathlib.Path(directory) / "contact.jsonl"
    run_contact_simulation(ContactSimConfig(trace_path=str(path), **CONTACT))
    return path


#: Golden file name -> ``directory -> trace path`` of its traced run.
REPORT_GOLDENS = {
    "report_smoke.txt": _packet(SMOKE, "golden_run.jsonl"),
    "report_faults.txt": _packet(FAULTED, "faulted_run.csv"),
    "report_contact.txt": _contact,
}


def render_golden(name, directory):
    """The report text golden ``name`` pins, traced into ``directory``."""
    return render_report(read_trace(REPORT_GOLDENS[name](directory))) + "\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in REPORT_GOLDENS:
            (DATA / name).write_text(render_golden(name, tmp))
            print(f"wrote {DATA / name}")


if __name__ == "__main__":
    main()
