"""Round-trip tests for config/params/result serialization.

Cross-process dispatch and checkpoint files both depend on these round
trips being lossless, so equality here is exact — including through a
JSON text encoding (Python's ``json`` round-trips floats exactly).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contact.simulator import ContactSimConfig, run_contact_simulation
from repro.core.params import ProtocolParameters
from repro.harness.experiment import AggregateResult, run_replicated
from repro.harness.runner import SerialRunner
from repro.harness.serialize import (
    contact_config_from_dict,
    contact_config_to_dict,
    contact_result_from_dict,
    contact_result_to_dict,
    result_from_dict,
    result_to_dict,
    run_key,
)
from repro.network.config import SimulationConfig
from repro.network.simulation import run_simulation
from repro.protocols.registry import get_protocol, packet_protocol_names

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
        assert result_from_dict(_via_json(result_to_dict(result))) == result

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
        assert contact_config_from_dict(
            _via_json(contact_config_to_dict(config))) == config

    def test_result_round_trip(self):
        result = run_contact_simulation(ContactSimConfig(
            policy="direct", duration_s=300.0, seed=2, n_sensors=10))
        assert contact_result_from_dict(
            _via_json(contact_result_to_dict(result))) == result


class TestRunKey:
    def test_stable_and_sensitive(self):
        a = run_key("packet", TINY.to_dict())
        assert a == run_key("packet", TINY.to_dict())
        assert a != run_key("contact", TINY.to_dict())
        assert a != run_key("packet", TINY.with_seed(8).to_dict())
