"""Scenario registry: presets, config builders, serialization round trips."""

import json

import pytest

from repro.contact.simulator import ContactSimConfig
from repro.harness.serialize import canonical_json
from repro.network.config import SimulationConfig
from repro.scenario.registry import (
    SCENARIOS,
    get_scenario,
    scenario_contact_config,
    scenario_names,
    scenario_packet_config,
)
from repro.scenario.spec import ScenarioSpec


class TestRegistry:
    def test_expected_presets(self):
        assert scenario_names() == sorted(SCENARIOS)
        assert set(scenario_names()) == {
            "campus", "city", "crowd-event", "satellite-pass"}

    def test_get_scenario(self):
        spec = get_scenario("campus")
        assert spec.name == "campus"
        assert spec.mobility == "zone"

    def test_get_unknown_scenario(self):
        with pytest.raises(ValueError, match="campus"):
            get_scenario("moonbase")

    def test_satellite_pass_is_plan_driven(self):
        spec = get_scenario("satellite-pass")
        assert spec.mobility == "plan"
        assert spec.plan is not None
        assert "a contact" in spec.plan

    def test_every_preset_validates(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert spec.duration_s > 0
            assert spec.n_sensors >= 1


class TestSpecValidation:
    def test_plan_required_for_plan_mobility(self):
        base = get_scenario("campus")
        with pytest.raises(ValueError, match="plan"):
            ScenarioSpec(**{**base.to_dict(), "mobility": "plan"})

    def test_unknown_mobility_rejected(self):
        base = get_scenario("campus").to_dict()
        base["mobility"] = "quantum"
        with pytest.raises(ValueError, match="mobility"):
            ScenarioSpec(**base)

    def test_unknown_field_rejected_on_from_dict(self):
        data = get_scenario("campus").to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            ScenarioSpec.from_dict(data)


class TestSpecRoundTrips:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_dict_round_trip(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_json_round_trip(self, name):
        spec = get_scenario(name)
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec


class TestConfigBuilders:
    def test_contact_config_carries_scenario(self):
        spec = get_scenario("campus")
        cfg = scenario_contact_config(spec, seed=7)
        assert isinstance(cfg, ContactSimConfig)
        assert cfg.scenario == spec
        assert cfg.n_sensors == spec.n_sensors
        assert cfg.duration_s == spec.duration_s
        assert cfg.seed == 7

    def test_packet_config_carries_scenario(self):
        spec = get_scenario("campus")
        cfg = scenario_packet_config(spec, seed=7)
        assert isinstance(cfg, SimulationConfig)
        assert cfg.scenario == spec
        assert cfg.mobility_model == "zone"
        assert cfg.comm_range_m == spec.comm_range_m

    def test_plan_scenario_selects_plan_mobility(self):
        spec = get_scenario("satellite-pass")
        assert scenario_packet_config(spec).mobility_model == "plan"

    def test_overrides_win(self):
        spec = get_scenario("campus")
        assert scenario_contact_config(spec, duration_s=42.0).duration_s == 42.0
        assert scenario_packet_config(spec, duration_s=42.0).duration_s == 42.0


class TestConfigRoundTrips:
    def test_contact_config_with_scenario_round_trips(self):
        cfg = scenario_contact_config(get_scenario("satellite-pass"), seed=3)
        data = cfg.to_dict()
        again = ContactSimConfig.from_dict(json.loads(canonical_json(data)))
        assert again == cfg
        assert again.scenario == cfg.scenario

    def test_packet_config_with_scenario_round_trips(self):
        cfg = scenario_packet_config(get_scenario("satellite-pass"), seed=3)
        again = SimulationConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.scenario == cfg.scenario

    def test_canonical_json_is_stable(self):
        cfg = scenario_contact_config(get_scenario("satellite-pass"), seed=3)
        a = canonical_json(cfg.to_dict())
        b = canonical_json(ContactSimConfig.from_dict(cfg.to_dict()).to_dict())
        assert a == b
