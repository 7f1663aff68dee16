"""Stable public facade of the reproduction package.

``repro.api`` is the supported import surface: everything an experiment
script, notebook, or downstream tool should need.  The deep module paths
(``repro.network.simulation``, ``repro.harness.runner``, ...) remain
importable but are internal — they may move between releases; the names
here will not.  See ``docs/API.md`` for the full compatibility policy.

The surface is organized into themed sub-facades; every name lives in
exactly one of them, and this package re-exports the union so that the
historical flat imports (``from repro.api import run_simulation``) keep
working unchanged:

* :mod:`repro.api.sim` — configure & run simulations, kernel blocks.
* :mod:`repro.api.batch` — replicated runs, sweeps, figure harnesses.
* :mod:`repro.api.faults` — fault injection and degradation campaigns.
* :mod:`repro.api.obs` — telemetry, tracing, and reports.
* :mod:`repro.api.analysis` — closed-form models (paper Sec. 4).
* :mod:`repro.api.contact` — contact-level simulation and policies.
* :mod:`repro.api.protocols` — the protocol registry and the zoo.
* :mod:`repro.api.scenario` — contact-plan replay and scenario presets.
* :mod:`repro.api.checks` — the static-analysis engine (``dftmsn lint``).
* :mod:`repro.api.bench` — kernel scaling benchmarks.

New code should prefer the namespaced imports
(``from repro.api.sim import run_simulation``); the flat surface is the
compatibility boundary and never shrinks.  ``tests/test_api_facade.py``
checks that every flat name resolves and originates in exactly one
sub-facade.
"""

from __future__ import annotations

from repro.api import analysis as analysis
from repro.api import batch as batch
from repro.api import bench as bench
from repro.api import checks as checks
from repro.api import contact as contact
from repro.api import faults as faults
from repro.api import obs as obs
from repro.api import protocols as protocols
from repro.api import scenario as scenario
from repro.api import sim as sim
from repro.api.analysis import (
    cts_collision_probability,
    direct_expected_delay,
    epidemic_expected_delay,
    min_contention_window,
    min_sleep_period,
    min_tau_max,
    pair_contact_rate,
    rts_collision_probability,
    sigma_slots,
)
from repro.api.batch import (
    FIG2_PROTOCOLS,
    Checkpoint,
    Job,
    ProcessPoolRunner,
    Runner,
    SerialRunner,
    TracingRunner,
    fig2,
    format_fig2_report,
    run_replicated,
    sweep,
)
from repro.api.bench import (
    PAPER_DENSITY,
    PAPER_SINK_FRACTION,
    ScalePoint,
    load_scale_report,
    measure_scale,
    run_scale_suite,
    scale_config,
    write_scale_report,
)
from repro.api.checks import Finding, lint_paths, lint_source
from repro.api.contact import (
    ContactSimConfig,
    ContactTracer,
    format_policy_comparison,
    policy_comparison,
    run_contact_simulation,
)
from repro.api.faults import (
    DegradationCurve,
    FaultCampaignResult,
    FaultInjector,
    FaultModel,
    FaultPlan,
    FaultSpec,
    PermanentDeaths,
    RadioImpairment,
    SinkOutage,
    TransientOutages,
    format_fault_campaign,
    run_fault_campaign,
)
from repro.api.obs import (
    CsvTraceWriter,
    FrameKind,
    JsonlTraceWriter,
    MetricsRegistry,
    Span,
    SpanTracker,
    TelemetryBus,
    TimeSeriesProbe,
    TraceRecorder,
    channel_usage,
    message_journey,
    node_activity,
    read_trace,
    render_report,
    writer_for_path,
)
from repro.api.protocols import (
    MeetingRateAgent,
    MeetingRatePolicy,
    ProtocolDescriptor,
    SinkMeetingRateEstimator,
    TwoHopAgent,
    TwoHopPolicy,
    contact_policy_names,
    crossval_pairs,
    get_protocol,
    names_tagged,
    packet_protocol_names,
    protocol_names,
    register_protocol,
)
from repro.api.scenario import (
    SCENARIOS,
    ContactPlan,
    ContactPlanError,
    ContactPlanMobility,
    PlannedContact,
    ScenarioSpec,
    get_scenario,
    load_contact_plan,
    parse_contact_plan,
    resolve_plan,
    scenario_contact_config,
    scenario_names,
    scenario_packet_config,
)
from repro.api.sim import (
    BERKELEY_MOTE,
    PROTOCOLS,
    Area,
    BurstTraffic,
    EventScheduler,
    MobilityManager,
    ProtocolParameters,
    Simulation,
    SimulationConfig,
    SimulationResult,
    StationaryMobility,
    ZoneGridMobility,
    run_simulation,
)

#: The flat compatibility surface: the exact disjoint union of the
#: sub-facade ``__all__`` lists (checked by ``tests/test_api_facade.py``).
__all__ = [
    # sim
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
    # faults
    "FaultSpec",
    "FaultModel",
    "PermanentDeaths",
    "TransientOutages",
    "RadioImpairment",
    "SinkOutage",
    "FaultPlan",
    "FaultInjector",
    "run_fault_campaign",
    "format_fault_campaign",
    "FaultCampaignResult",
    "DegradationCurve",
    # batch
    "run_replicated",
    "sweep",
    "Job",
    "Runner",
    "SerialRunner",
    "ProcessPoolRunner",
    "TracingRunner",
    "Checkpoint",
    "FIG2_PROTOCOLS",
    "fig2",
    "format_fig2_report",
    # obs
    "TelemetryBus",
    "MetricsRegistry",
    "SpanTracker",
    "Span",
    "JsonlTraceWriter",
    "CsvTraceWriter",
    "writer_for_path",
    "read_trace",
    "render_report",
    "TimeSeriesProbe",
    "TraceRecorder",
    "FrameKind",
    "channel_usage",
    "message_journey",
    "node_activity",
    # analysis
    "sigma_slots",
    "rts_collision_probability",
    "cts_collision_probability",
    "min_contention_window",
    "min_sleep_period",
    "min_tau_max",
    "direct_expected_delay",
    "epidemic_expected_delay",
    "pair_contact_rate",
    # contact
    "ContactSimConfig",
    "ContactTracer",
    "run_contact_simulation",
    "policy_comparison",
    "format_policy_comparison",
    # protocols
    "ProtocolDescriptor",
    "register_protocol",
    "get_protocol",
    "protocol_names",
    "packet_protocol_names",
    "contact_policy_names",
    "crossval_pairs",
    "names_tagged",
    "TwoHopAgent",
    "TwoHopPolicy",
    "MeetingRateAgent",
    "MeetingRatePolicy",
    "SinkMeetingRateEstimator",
    # scenario
    "ContactPlan",
    "ContactPlanError",
    "ContactPlanMobility",
    "PlannedContact",
    "SCENARIOS",
    "ScenarioSpec",
    "get_scenario",
    "load_contact_plan",
    "parse_contact_plan",
    "resolve_plan",
    "scenario_contact_config",
    "scenario_names",
    "scenario_packet_config",
    # checks
    "Finding",
    "lint_paths",
    "lint_source",
    # bench
    "PAPER_DENSITY",
    "PAPER_SINK_FRACTION",
    "ScalePoint",
    "scale_config",
    "measure_scale",
    "run_scale_suite",
    "write_scale_report",
    "load_scale_report",
]
