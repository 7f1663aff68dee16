"""``repro.api.sim`` — configure and run full protocol simulations.

The simulation sub-facade: the seeded :class:`SimulationConfig` /
:func:`run_simulation` entry points, the :class:`Simulation` object for
callers that need mid-run access (telemetry, faults), and the kernel
building blocks (scheduler, mobility, energy, traffic) for scripts that
assemble custom scenarios.

Every name here is also importable from flat ``repro.api`` (the
compatibility surface); see ``docs/API.md`` for the deprecation policy.
"""

from __future__ import annotations

from repro.core.params import ProtocolParameters
from repro.des import EventScheduler
from repro.energy import BERKELEY_MOTE
from repro.mobility import (
    Area,
    MobilityManager,
    StationaryMobility,
    ZoneGridMobility,
)
from repro.network.config import SimulationConfig
from repro.network.simulation import (
    Simulation,
    SimulationResult,
    run_simulation,
)
from repro.protocols.registry import PROTOCOLS
from repro.traffic import BurstTraffic

__all__ = [
    "ProtocolParameters",
    "PROTOCOLS",
    "SimulationConfig",
    "Simulation",
    "SimulationResult",
    "run_simulation",
    "EventScheduler",
    "BERKELEY_MOTE",
    "Area",
    "MobilityManager",
    "StationaryMobility",
    "ZoneGridMobility",
    "BurstTraffic",
]
