"""Round-trip tests for config/params/result serialization.

Cross-process dispatch and checkpoint files both depend on these round
trips being lossless, so equality here is exact — including through a
JSON text encoding (Python's ``json`` round-trips floats exactly).
"""

import hashlib
import json
from dataclasses import MISSING, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import from_plain, to_plain
from repro.contact.simulator import (
    ContactSimConfig,
    ContactSimResult,
    run_contact_simulation,
)
from repro.core.params import ProtocolParameters
from repro.harness.experiment import AggregateResult, run_replicated
from repro.harness.faults import run_fault_campaign
from repro.harness.runner import Job, RunFailure, SerialRunner
from repro.harness.serialize import run_key
from repro.network.config import SimulationConfig
from repro.network.faults import FaultSpec
from repro.network.simulation import SimulationResult, run_simulation
from repro.protocols.registry import get_protocol, packet_protocol_names
from repro.scenario.plan import PlannedContact, parse_contact_plan
from repro.scenario.spec import ScenarioSpec

TINY = SimulationConfig(protocol="opt", duration_s=100.0,
                        n_sensors=8, n_sinks=2, seed=7)


def _via_json(data):
    return json.loads(json.dumps(data))


class TestProtocolParameters:
    @pytest.mark.parametrize("preset", ["opt", "noopt", "nosleep"])
    def test_preset_round_trip(self, preset):
        params = getattr(ProtocolParameters, preset)()
        assert ProtocolParameters.from_dict(params.to_dict()) == params

    @pytest.mark.parametrize("protocol", sorted(packet_protocol_names()))
    def test_protocol_table_round_trip(self, protocol):
        params = get_protocol(protocol).params
        assert ProtocolParameters.from_dict(
            _via_json(params.to_dict())) == params

    def test_override_round_trip(self):
        params = ProtocolParameters.opt(alpha=0.25, tau_max_slots=32,
                                        t_min_s=3.5)
        rebuilt = ProtocolParameters.from_dict(_via_json(params.to_dict()))
        assert rebuilt == params
        assert rebuilt.alpha == 0.25 and rebuilt.t_min_s == 3.5

    def test_unknown_field_rejected(self):
        data = ProtocolParameters().to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            ProtocolParameters.from_dict(data)

    @given(alpha=st.floats(min_value=0.0, max_value=1.0),
           xi_timeout_s=st.floats(min_value=0.1, max_value=1e4),
           delivery_threshold_r=st.floats(min_value=1e-6, max_value=1.0),
           queue_capacity=st.integers(min_value=1, max_value=10_000),
           sleep_enabled=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_property_round_trip(self, **overrides):
        params = ProtocolParameters(**overrides)
        assert ProtocolParameters.from_dict(
            _via_json(params.to_dict())) == params


class TestSimulationConfig:
    @pytest.mark.parametrize("protocol", sorted(packet_protocol_names()))
    def test_every_protocol_round_trips(self, protocol):
        config = SimulationConfig(protocol=protocol, seed=11,
                                  duration_s=500.0)
        assert SimulationConfig.from_dict(_via_json(config.to_dict())) \
            == config

    def test_params_override_round_trips(self):
        config = SimulationConfig(
            protocol="noopt", seed=3,
            params=ProtocolParameters.noopt(alpha=0.42))
        rebuilt = SimulationConfig.from_dict(_via_json(config.to_dict()))
        assert rebuilt == config
        assert rebuilt.params.alpha == 0.42
        # The agent class is re-resolved from the registry, never encoded.
        assert "agent_class" not in config.to_dict()
        assert rebuilt.agent_class is config.agent_class

    def test_unknown_field_rejected(self):
        data = TINY.to_dict()
        data["n_drones"] = 4
        with pytest.raises(ValueError, match="n_drones"):
            SimulationConfig.from_dict(data)

    @given(protocol=st.sampled_from(sorted(packet_protocol_names())),
           seed=st.integers(min_value=0, max_value=2 ** 63),
           n_sensors=st.integers(min_value=1, max_value=300),
           n_sinks=st.integers(min_value=1, max_value=10),
           duration_s=st.floats(min_value=1.0, max_value=1e6),
           speed_max_mps=st.floats(min_value=0.0, max_value=20.0),
           mobility_model=st.sampled_from(["zone", "walk", "waypoint",
                                           "levy"]),
           sink_placement=st.sampled_from(["random", "grid"]),
           sink_mobility=st.sampled_from(["static", "mobile"]))
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip(self, **fields):
        config = SimulationConfig(**fields)
        assert SimulationConfig.from_dict(_via_json(config.to_dict())) \
            == config


class TestSimulationResult:
    @pytest.fixture(scope="class")
    def result(self):
        return run_simulation(TINY)

    def test_full_round_trip(self, result):
        assert from_plain(SimulationResult,
                          _via_json(to_plain(result))) == result

    def test_summary_view_names_scenario(self, result):
        d = result.to_dict()
        assert d["mobility_model"] == "zone"
        assert d["sink_placement"] == "random"
        assert d["sink_mobility"] == "static"

    def test_aggregate_round_trip(self):
        agg = run_replicated(TINY, replicates=2, runner=SerialRunner())
        rebuilt = AggregateResult.from_dict(_via_json(agg.to_dict()))
        assert rebuilt.config == agg.config
        assert rebuilt.replicates == agg.replicates
        assert json.dumps(rebuilt.summary(), sort_keys=True) == \
            json.dumps(agg.summary(), sort_keys=True)


class TestContactSerialization:
    def test_config_round_trip(self):
        config = ContactSimConfig(policy="spray", duration_s=400.0, seed=9,
                                  n_sensors=20, mac_efficiency=0.7)
        assert ContactSimConfig.from_dict(
            _via_json(config.to_dict())) == config

    def test_result_round_trip(self):
        result = run_contact_simulation(ContactSimConfig(
            policy="direct", duration_s=300.0, seed=2, n_sensors=10))
        assert from_plain(ContactSimResult,
                          _via_json(to_plain(result))) == result


class TestRunKey:
    def test_stable_and_sensitive(self):
        a = run_key("packet", TINY.to_dict())
        assert a == run_key("packet", TINY.to_dict())
        assert a != run_key("contact", TINY.to_dict())
        assert a != run_key("packet", TINY.with_seed(8).to_dict())


# ----------------------------------------------------------------------
# format pins: run keys and saved JSON must not drift, or every
# existing checkpoint and saved result file silently goes stale
# ----------------------------------------------------------------------
PIN_PLAN = "a contact +0 +50 0 3 10000\na contact +20 +80 3 4 5000\n"
PIN_SCENARIO = ScenarioSpec(name="pin", mobility="plan", n_sensors=4,
                            n_sinks=1, duration_s=100.0, plan=PIN_PLAN)

#: sha256 of ``json.dumps(...to_dict())`` of the two pinned runs below.
AGGREGATE_SHA256 = (
    "bc12e567aae613333d13a1a9f87a08ae10331667b0e26580d8195eed308f816e")
CAMPAIGN_SHA256 = (
    "c635a4d3b922c19eeea9259d0bf7d292a9c1d2619f25a2789e2190860701855f")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _no_wall_clock(aggregate):
    """Zero the fields the pins do not hold so the bytes can be pinned.

    ``wall_clock_s`` is not deterministic.  ``events_fired`` counts the
    scheduler's events, which an event fusion moves while every result
    stays put; ``tests/test_kernel_goldens.py`` leaves it out too.
    """
    aggregate.replicates = [replace(r, wall_clock_s=0.0, events_fired=0)
                            for r in aggregate.replicates]
    return aggregate


class TestFormatPins:
    @pytest.mark.parametrize("kind, config, expected", [
        ("packet", SimulationConfig(),
         "7a5bc95d5418febb1bb5f53fdede51365846ecaa48af4370405035428de8832d"),
        ("packet", SimulationConfig(
            protocol="noopt", seed=5, duration_s=300.0, n_sensors=6,
            n_sinks=1, params=ProtocolParameters.noopt(alpha=0.3),
            faults=(FaultSpec("outages", intensity=0.25, end_s=200.0),),
            scenario=PIN_SCENARIO),
         "182b0f210296c7b4e2208eeb0ab067a06254e51331cbefff94e2fa3236015857"),
        ("contact", ContactSimConfig(
            policy="fad", seed=4, duration_s=100.0, n_sensors=4, n_sinks=1,
            scenario=PIN_SCENARIO),
         "e7f4e29475c6cb1d11a5497bda5099e225f16be4c952191827eb54883f45a6c5"),
    ], ids=["bare", "params-faults-scenario", "contact-scenario"])
    def test_run_key(self, kind, config, expected):
        assert run_key(kind, config.to_dict()) == expected

    def test_aggregate_bytes(self):
        agg = _no_wall_clock(run_replicated(TINY, replicates=2,
                                            runner=SerialRunner()))
        agg.failures = [RunFailure(job=Job("packet", TINY.with_seed(99)),
                                   error_type="RuntimeError", error="boom",
                                   traceback="tb")]
        assert _sha(json.dumps(agg.to_dict())) == AGGREGATE_SHA256

    def test_fault_campaign_bytes(self):
        result = run_fault_campaign(
            TINY, FaultSpec("outages", mean_downtime_s=30.0), [0.0, 0.5],
            protocols=["opt", "direct"], replicates=1, base_seed=3)
        for curve in result.curves.values():
            for point in curve.points:
                _no_wall_clock(point.aggregate)
        assert _sha(json.dumps(result.to_dict())) == CAMPAIGN_SHA256


# ----------------------------------------------------------------------
# every field of every codec class survives the plain-data round trip
# ----------------------------------------------------------------------
def _perturbed(cls, **explicit):
    """``cls`` with every field off its default.

    Numbers and flags are moved automatically; any other field (and any
    field without a default) must be given in ``explicit``, so a new
    field of an unforeseen type fails here until a value is chosen.
    """
    values = dict(explicit)
    for f in fields(cls):
        if f.name in values:
            continue
        if isinstance(f.default, bool):
            values[f.name] = not f.default
        elif isinstance(f.default, int):
            values[f.name] = f.default + 1
        elif isinstance(f.default, float):
            values[f.name] = f.default / 2 if f.default else 0.5
        else:
            raise AssertionError(f"{cls.__name__}.{f.name} needs an "
                                 f"explicit non-default value")
    return cls(**values)


def _every_field_instances():
    scenario = _perturbed(ScenarioSpec, name="pin", description="pinned",
                          mobility="plan", plan=PIN_PLAN)
    fault = _perturbed(FaultSpec, kind="radio", end_s=900.0)
    params = _perturbed(ProtocolParameters, xi_multicast_rule="sequential",
                        t_min_s=3.5)
    config = _perturbed(
        SimulationConfig, protocol="zbr", sink_placement="grid",
        sink_mobility="mobile", mobility_model="plan",
        plan_path="pin.plan", scenario=scenario,
        trace_path="pin.jsonl", faults=(fault,), params=params)
    contact_config = _perturbed(
        ContactSimConfig, policy="spray", trace_path="pin.jsonl",
        plan_path="pin.plan", scenario=scenario)
    planned = PlannedContact(a=1, b=2, start=0.5, end=3.0, rate_bps=250.0)
    result = SimulationResult(
        config=config, duration_s=12.5, messages_generated=7,
        messages_delivered=5, delivery_ratio=5 / 7, average_delay_s=1.25,
        average_hops=2.5, average_power_mw=0.75,
        per_node_power_mw=[0.5, 1.0], transmissions=40,
        frames_corrupted=3, bits_sent=40_000, queue_drops_overflow=1,
        queue_drops_threshold=2, agent_totals={"rts_sent": 9},
        events_fired=123, wall_clock_s=0.25,
        telemetry={"metrics": {"frames": 4}, "spans": {"mac": [1, 2]}})
    contact_result = ContactSimResult(
        config=contact_config, messages_generated=9, messages_delivered=4,
        delivery_ratio=4 / 9, average_delay_s=3.5, average_hops=1.5,
        transfers=11, contacts=6, usable_contacts=5)
    return [scenario, fault, params, config, contact_config, planned,
            parse_contact_plan(PIN_PLAN), result, contact_result]


class TestEveryField:
    @pytest.mark.parametrize("obj", _every_field_instances(),
                             ids=lambda obj: type(obj).__name__)
    def test_every_field_round_trips(self, obj):
        cls = type(obj)
        for f in fields(cls):
            if f.default is not MISSING:
                assert getattr(obj, f.name) != f.default, f.name
        data = to_plain(obj)
        assert list(data) == [f.name for f in fields(cls)]
        assert from_plain(cls, _via_json(data)) == obj
        if cls not in (SimulationResult, ContactSimResult):
            # The public methods delegate to the codec (a result's
            # ``to_dict`` is the summary view instead).
            assert obj.to_dict() == data
            assert cls.from_dict(_via_json(data)) == obj
