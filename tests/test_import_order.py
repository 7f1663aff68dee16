"""Import-order regression test for the protocol zoo.

Each protocol module imports :mod:`repro.contact.policies`, and the
contact simulator asks :mod:`repro.protocols.registry` for its policy
classes, so the two packages reach each other at import time.  Whichever
of them a program happens to import first, the whole zoo must register
and both simulators must build runs from it.  Every case starts a fresh
interpreter so no earlier import in the test process can mask a cycle.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

ZOO = ("opt", "nosleep", "noopt", "fad", "zbr", "epidemic", "direct",
       "spray", "two_hop", "meeting_rate")

PROBE = textwrap.dedent("""
    import {module}

    from repro.contact.simulator import ContactSimConfig, ContactSimulation
    from repro.network.config import SimulationConfig
    from repro.network.simulation import Simulation
    from repro.protocols import protocol_names

    print(",".join(protocol_names()))
    contact = ContactSimulation(ContactSimConfig(
        policy="fad", duration_s=50.0, n_sensors=4, n_sinks=1))
    packet = Simulation(SimulationConfig(
        protocol="zbr", duration_s=50.0, n_sensors=4, n_sinks=1))
    zbr_contact = ContactSimulation(ContactSimConfig(
        policy="zbr", duration_s=50.0, n_sensors=4, n_sinks=1))
    print(type(contact.policies[0]).__name__,
          type(packet.sensors[0].agent).__name__,
          type(zbr_contact.policies[0]).__name__)
""")


@pytest.mark.parametrize("module", [
    "repro.contact",
    "repro.contact.simulator",
    "repro.protocols",
    "repro.network.config",
    "repro.api",
])
def test_zoo_complete_whichever_package_imports_first(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, built = proc.stdout.strip().splitlines()
    assert tuple(names.split(",")) == ZOO
    assert built.split() == ["FadPolicy", "ZbrAgent", "ZbrHistoryPolicy"]
