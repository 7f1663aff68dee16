"""Simulation configuration.

Defaults reproduce the paper's setup (Sec. 5): 3 sinks + 100 sensors in a
150 x 150 m^2 area of 25 zones, speeds U(0, 5) m/s with 20 % zone-exit
probability, 10 m range, 200-message queues, Poisson arrivals every 120 s
on average, 1000-bit data / 50-bit control frames on a 10 kbps channel,
Berkeley-mote power, 25 000 s per run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Type

from repro.codec import PlainData, require_finite
from repro.core.params import ProtocolParameters
from repro.core.protocol import MacAgent
from repro.network.faults import FaultSpec
from repro.protocols.registry import get_protocol, packet_protocol_names
from repro.scenario.spec import ScenarioSpec


@dataclass(frozen=True)
class SimulationConfig(PlainData):
    """Everything needed to build and run one simulation.

    ``to_dict``/``from_dict`` (:mod:`repro.codec`) give the lossless
    plain-data form that crosses process boundaries and checkpoints.
    The agent class is never serialized: it is re-derived from
    ``protocol`` through the protocol registry on the other side.
    """

    protocol: str = "opt"
    seed: int = 1
    duration_s: float = 25_000.0

    # --- topology (Sec. 5 defaults) ---------------------------------------
    n_sensors: int = 100
    n_sinks: int = 3
    area_m: float = 150.0
    zones_per_side: int = 5
    comm_range_m: float = 10.0
    sink_placement: str = "random"  # "random" | "grid"
    # Sec. 1: sinks are "either deployed at strategic locations ... or
    # carried by a subset of people".  "mobile" gives sinks the same
    # zone mobility as the sensors.
    sink_mobility: str = "static"  # "static" | "mobile"

    # --- mobility -----------------------------------------------------------
    mobility_model: str = "zone"  # "zone" | "walk" | "waypoint" | "levy" | "plan"
    speed_min_mps: float = 0.0
    speed_max_mps: float = 5.0
    exit_probability: float = 0.2
    mobility_tick_s: float = 1.0
    # --- scenario / contact-plan replay (repro.scenario) ------------------------
    #: External ION-style contact plan driving ``mobility_model="plan"``
    #: (file path; see docs/SCENARIOS.md for the grammar).
    plan_path: Optional[str] = None
    #: Scenario provenance; a plan-driven spec (``mobility == "plan"``)
    #: supplies its inline plan when ``plan_path`` is unset.
    scenario: Optional[ScenarioSpec] = None

    # --- traffic / channel ----------------------------------------------------
    mean_arrival_s: float = 120.0
    message_bits: int = 1000
    control_bits: int = 50
    bandwidth_bps: float = 10_000.0
    queue_capacity: int = 200

    # --- telemetry (repro.obs) --------------------------------------------------
    #: Attach the telemetry bus (metrics registry + span tracker); the
    #: aggregates land in ``SimulationResult.telemetry``.  Enabling
    #: telemetry never changes simulation behaviour: a seeded run yields
    #: a byte-identical ``SimulationResult.to_dict()`` either way.
    telemetry: bool = False
    #: Stream every bus event to this file (JSONL, or CSV for ``*.csv``).
    #: Implies ``telemetry``.
    trace_path: Optional[str] = None

    # --- correctness checking (repro.checks.invariants) ------------------------
    #: Assert the protocol invariants (Eq. 1-3, queue order, buffer
    #: bounds, clock monotonicity, copy conservation) during the run.
    #: The ``REPRO_CHECK_INVARIANTS`` environment variable force-enables
    #: this regardless of the field (the test suite does).
    check_invariants: bool = False
    #: Simulated seconds between two periodic invariant sweeps.
    invariant_interval_s: float = 100.0

    # --- fault injection (repro.network.faults) ---------------------------------
    #: Fault models armed before the run starts.  Each spec builds one
    #: :class:`~repro.network.faults.FaultModel` drawing from its own
    #: ``faults:<name>`` substream of the run's seed, so fault campaigns
    #: stay deterministic across serial and parallel backends.
    faults: Tuple[FaultSpec, ...] = ()

    # --- protocol parameters (None -> preset for ``protocol``) -----------------
    params: Optional[ProtocolParameters] = None

    def __post_init__(self) -> None:
        require_finite(self)
        # Normalize faults to a tuple (JSON round trips yield lists).
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise ValueError(f"faults entries must be FaultSpec, "
                                 f"got {spec!r}")
        if self.protocol not in packet_protocol_names():
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(packet_protocol_names())}"
            )
        if self.scenario is not None and not isinstance(self.scenario,
                                                        ScenarioSpec):
            raise ValueError(f"scenario must be a ScenarioSpec, "
                             f"got {self.scenario!r}")
        if self.mobility_model not in ("zone", "walk", "waypoint", "levy",
                                       "plan"):
            raise ValueError(f"unknown mobility model {self.mobility_model!r}")
        if self.mobility_model == "plan":
            scenario_plan = (self.scenario is not None
                             and self.scenario.mobility == "plan")
            if self.plan_path is None and not scenario_plan:
                raise ValueError(
                    "mobility_model='plan' needs plan_path or a "
                    "plan-driven scenario")
        if self.sink_placement not in ("random", "grid"):
            raise ValueError(f"unknown sink placement {self.sink_placement!r}")
        if self.sink_mobility not in ("static", "mobile"):
            raise ValueError(f"unknown sink mobility {self.sink_mobility!r}")
        if self.n_sensors < 1 or self.n_sinks < 1:
            raise ValueError("need at least one sensor and one sink")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.comm_range_m <= 0 or self.area_m <= 0:
            raise ValueError("geometry must be positive")
        if self.speed_min_mps < 0 or self.speed_max_mps < self.speed_min_mps:
            raise ValueError("invalid speed range")
        if not 0.0 <= self.exit_probability <= 1.0:
            raise ValueError("exit_probability must be in [0, 1]")
        if self.mobility_tick_s <= 0:
            raise ValueError("mobility tick must be positive")
        if self.mean_arrival_s <= 0:
            raise ValueError("mean arrival interval must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if self.invariant_interval_s <= 0:
            raise ValueError("invariant check interval must be positive")

    # ------------------------------------------------------------------
    # derived pieces
    # ------------------------------------------------------------------
    @property
    def agent_class(self) -> Type[MacAgent]:
        """Protocol agent class for this configuration."""
        agent = get_protocol(self.protocol).agent_class
        assert agent is not None  # __post_init__ validated packet support
        return agent

    def effective_params(self) -> ProtocolParameters:
        """The protocol parameters for this run (preset unless overridden)."""
        params = self.params
        if params is None:
            params = get_protocol(self.protocol).params
        return replace(params, queue_capacity=self.queue_capacity)

    def queue_drop_threshold(self) -> float:
        """FTD-threshold dropping only applies under the ``"ftd"`` queue
        discipline; ``"fifo"`` protocols (no fault-tolerance notion)
        disable it."""
        if get_protocol(self.protocol).queue_discipline == "fifo":
            return 1.0
        return self.effective_params().ftd_drop_threshold

    def with_seed(self, seed: int) -> "SimulationConfig":
        """A copy of this configuration with a different seed."""
        return replace(self, seed=seed)

    @property
    def sink_ids(self) -> range:
        """Node ids assigned to sinks (0..n_sinks-1)."""
        return range(self.n_sinks)

    @property
    def sensor_ids(self) -> range:
        """Node ids assigned to sensors."""
        return range(self.n_sinks, self.n_sinks + self.n_sensors)
