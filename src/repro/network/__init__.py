"""Network assembly: configuration, nodes, and the top-level simulation."""

from repro.network.config import SimulationConfig
from repro.network.node import SensorNode, SinkNode
from repro.network.simulation import Simulation, SimulationResult

__all__ = [
    "SimulationConfig",
    "SensorNode",
    "SinkNode",
    "Simulation",
    "SimulationResult",
]
