"""The benchmark's workloads, and the checks every run's output must pass.

Each workload turns the benchmark seed into ``replicates`` simulator
configurations (replicate ``i`` of seed ``s`` runs with simulator seed
``s * 1000 + i``) and builds them only through the public entry points
``Simulation(config)`` and ``ContactSimulation(config)``.  Several
replicates per run average over the seed-to-seed spread of one small
network, so that one run's figures depend on the code, not on where a
seed happened to place three sinks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.contact.simulator import ContactSimConfig, ContactSimulation
from repro.energy.model import BERKELEY_MOTE
from repro.harness.bench import scale_config
from repro.network.config import SimulationConfig
from repro.network.simulation import Simulation


#: Replicates of a telemetry workload that are also run bare, to check
#: that telemetry leaves the results alone.
TELEMETRY_REFERENCES = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark input family."""

    name: str
    level: str  # "packet" or "contact"
    replicates: int
    make: Callable[[int, Path], Any]  # (replicate seed, scratch dir) -> config
    #: Also run the first :data:`TELEMETRY_REFERENCES` configs bare (no
    #: telemetry, no checker) and require identical simulated statistics.
    telemetry: bool = False

    def configs(self, seed: int, scratch: Path) -> List[Any]:
        """The replicate configurations of benchmark seed ``seed``."""
        return [self.make(seed * 1000 + i, scratch)
                for i in range(self.replicates)]

    def build(self, config: Any) -> Any:
        """Construct the simulation object (what ``setup_s`` times)."""
        if self.level == "packet":
            return Simulation(config)
        return ContactSimulation(config)


def bare(config: SimulationConfig) -> SimulationConfig:
    """``config`` with telemetry, trace and invariant checking off."""
    return dataclasses.replace(config, telemetry=False, trace_path=None,
                               check_invariants=False)


def _paper(seed: int, scratch: Path) -> SimulationConfig:
    # Paper Sec. 5: 100 sensors, 3 sinks, 150 m square in 5 x 5 zones.
    # Sinks sit at strategic (grid) locations, the Sec. 1 alternative to
    # random drops, which sets most of the seed-to-seed spread otherwise.
    return SimulationConfig(protocol="opt", seed=seed, duration_s=2000.0,
                            sink_placement="grid")


def _paper_telemetry(seed: int, scratch: Path) -> SimulationConfig:
    return dataclasses.replace(_paper(seed, scratch),
                               trace_path=str(scratch / "trace.jsonl"),
                               check_invariants=True)


def _scale(seed: int, scratch: Path) -> SimulationConfig:
    return scale_config(3000, 400.0, seed=seed, protocol="opt")


def _contact(seed: int, scratch: Path) -> ContactSimConfig:
    return ContactSimConfig(policy="fad", seed=seed, duration_s=1000.0)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper-opt", "packet", 3, _paper),
    Workload("scale-3k", "packet", 3, _scale),
    Workload("contact-fad", "contact", 6, _contact),
    Workload("paper-telemetry", "packet", 2, _paper_telemetry,
             telemetry=True),
)}


@dataclass(frozen=True)
class Summary:
    """The simulated statistics of one run that the benchmark reports."""

    generated: int
    delivered: int
    delay_sum_s: float
    transmissions: int  # channel transmissions, or contact transfers
    fingerprint: Tuple[Any, ...]  # everything seeded; equal across reruns


def summarize(sim: Any, result: Any) -> Summary:
    """Reduce a run's result to what the metrics and checks need."""
    if isinstance(sim, Simulation):
        fingerprint = tuple(sorted(result.to_dict().items()))
        transmissions = result.transmissions
    else:
        fingerprint = tuple(
            (f.name, getattr(result, f.name))
            for f in dataclasses.fields(result) if f.name != "config")
        transmissions = result.transfers
    delays = sim.collector.delays()
    return Summary(result.messages_generated, result.messages_delivered,
                   sum(delays), transmissions, fingerprint)


def check_output(sim: Any, result: Any) -> List[str]:
    """Problems with one run's output (empty when it is correct)."""
    problems: List[str] = []
    gen, dlv = result.messages_generated, result.messages_delivered
    if gen <= 0:
        problems.append("no message generated")
    if not 0 <= dlv <= gen:
        problems.append(f"delivered {dlv} outside [0, generated {gen}]")
    if abs(result.delivery_ratio - (dlv / gen if gen else 0.0)) > 1e-12:
        problems.append("delivery_ratio disagrees with delivered/generated")
    delays = sim.collector.delays()
    if delays and min(delays) < 0:
        problems.append(f"negative delay {min(delays)!r}")
    if dlv and (result.average_delay_s is None or result.average_delay_s < 0):
        problems.append(f"bad average delay {result.average_delay_s!r}")
    if isinstance(sim, Simulation):
        low, high = BERKELEY_MOTE.sleep_mw, BERKELEY_MOTE.tx_mw
        bad = [p for p in result.per_node_power_mw if not low <= p <= high]
        if bad:
            problems.append(f"{len(bad)} node powers outside the "
                            f"Berkeley-mote range [{low}, {high}] mW")
        if result.events_fired <= 0:
            problems.append("no event fired")
    else:
        if not 0 <= result.usable_contacts <= result.contacts:
            problems.append("more usable contacts than contacts")
        if result.transfers < dlv:
            problems.append("fewer transfers than deliveries")
    return problems


def telemetry_mismatch(reference: Summary, observed: Summary) -> Optional[str]:
    """How a telemetry run differs from its bare run, if it does.

    Telemetry and the invariant checker must not change results; only
    ``events_fired`` may differ, as it also counts the checker's sweeps.
    """
    ref = {k: v for k, v in reference.fingerprint if k != "events_fired"}
    got = {k: v for k, v in observed.fingerprint if k != "events_fired"}
    diff = sorted(k for k in ref if ref[k] != got.get(k))
    return f"telemetry changed {diff}" if diff else None
