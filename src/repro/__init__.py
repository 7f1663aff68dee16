"""repro — reproduction of "Protocol Design and Optimization for
Delay/Fault-Tolerant Mobile Sensor Networks" (Wang, Wu, Lin, Tzeng;
ICDCS 2007).

Quickstart::

    from repro import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(protocol="opt",
                                             duration_s=2000, seed=7))
    print(result.delivery_ratio, result.average_power_mw)

Package map:

* :mod:`repro.core` — the cross-layer protocol (Sec. 3) and its
  optimizations (Sec. 4).
* :mod:`repro.protocols` — the protocol registry and the comparator zoo
  (ZBR, direct, epidemic, ...), one module per protocol.
* :mod:`repro.des`, :mod:`repro.mobility`, :mod:`repro.radio`,
  :mod:`repro.energy`, :mod:`repro.traffic` — the simulation substrates.
* :mod:`repro.network` — configuration and the top-level simulation.
* :mod:`repro.metrics`, :mod:`repro.analysis` — measurement and the
  closed-form Sec. 4 analysis.
* :mod:`repro.harness` — experiment registry, figure reproduction, CLI.
"""

from repro.core.params import ProtocolParameters
from repro.core.message import DataMessage, MessageCopy
from repro.core.queue import FtdQueue
from repro.core.protocol import CrossLayerAgent, MacAgent, SinkAgent
from repro.network.config import SimulationConfig
from repro.network.simulation import Simulation, SimulationResult, run_simulation
from repro.protocols.registry import PROTOCOLS

__version__ = "1.0.0"

__all__ = [
    "ProtocolParameters",
    "DataMessage",
    "MessageCopy",
    "FtdQueue",
    "CrossLayerAgent",
    "MacAgent",
    "SinkAgent",
    "SimulationConfig",
    "PROTOCOLS",
    "Simulation",
    "SimulationResult",
    "run_simulation",
    "__version__",
]
