"""The repro.protocols registry contract (PR 10).

The registry is the single source of truth for protocol dispatch at
both simulation levels; these tests pin its lookup/validation behavior,
the descriptor invariants, the live ``PROTOCOLS`` facade view, and the
construction-time name validation in both simulator configs.
"""

import pytest

import repro
import repro.api
import repro.api.sim
from repro.contact.simulator import ContactSimConfig
from repro.core.params import ProtocolParameters
from repro.network.config import SimulationConfig
from repro.protocols import (
    PROTOCOLS,
    ProtocolDescriptor,
    contact_policy_names,
    crossval_pairs,
    get_protocol,
    names_tagged,
    packet_protocol_names,
    protocol_names,
    register,
    unregister,
)
from repro.protocols.direct import DirectAgent, DirectPolicy


def _descriptor(name="dummy", **overrides):
    fields = dict(name=name, agent_class=DirectAgent,
                  policy_class=DirectPolicy,
                  params=ProtocolParameters(), queue_discipline="fifo")
    fields.update(overrides)
    return ProtocolDescriptor(**fields)


class TestRegistryLookup:
    def test_builtin_zoo_registered(self):
        names = protocol_names()
        for expected in ("opt", "nosleep", "noopt", "fad", "zbr",
                         "epidemic", "direct", "spray", "two_hop",
                         "meeting_rate"):
            assert expected in names

    def test_get_protocol_unknown_lists_zoo(self):
        with pytest.raises(ValueError) as err:
            get_protocol("bogus")
        assert "bogus" in str(err.value)
        assert "two_hop" in str(err.value)
        assert "meeting_rate" in str(err.value)

    def test_capability_partitions(self):
        for name in packet_protocol_names():
            assert get_protocol(name).packet_capable
        for name in contact_policy_names():
            assert get_protocol(name).contact_capable
        assert set(packet_protocol_names()) | set(
            contact_policy_names()) == set(protocol_names())

    def test_tags_drive_harness_membership(self):
        assert names_tagged("fig2") == ("opt", "nosleep", "noopt", "zbr")
        assert names_tagged("fault-campaign") == ("opt", "epidemic",
                                                  "direct")

    def test_crossval_pairs_are_contact_capable(self):
        pairs = crossval_pairs()
        assert pairs["opt"] == "fad"
        for packet, contact in pairs.items():
            assert get_protocol(packet).packet_capable
            assert get_protocol(contact).contact_capable


class TestRegisterUnregister:
    def test_round_trip_appears_in_views(self):
        register(_descriptor())
        try:
            assert "dummy" in protocol_names()
            assert "dummy" in PROTOCOLS
            assert PROTOCOLS["dummy"] == (DirectAgent,
                                          get_protocol("dummy").params)
            assert get_protocol("dummy").policy_class is DirectPolicy
            # Both simulator configs validate against the live registry.
            assert "dummy" in packet_protocol_names()
            assert "dummy" in contact_policy_names()
            config = SimulationConfig(protocol="dummy")
            assert config.agent_class is DirectAgent
            assert ContactSimConfig(policy="dummy").policy == "dummy"
        finally:
            unregister("dummy")
        assert "dummy" not in protocol_names()
        assert "dummy" not in PROTOCOLS

    def test_facade_protocols_is_the_registry_view(self):
        assert repro.PROTOCOLS is PROTOCOLS
        assert repro.api.PROTOCOLS is PROTOCOLS
        assert repro.api.sim.PROTOCOLS is PROTOCOLS

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(_descriptor(name="opt"))

    def test_unregister_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            unregister("bogus")

    def test_contact_only_registration_hidden_from_packet_view(self):
        register(_descriptor(name="dummy", agent_class=None))
        try:
            assert "dummy" in contact_policy_names()
            assert "dummy" not in packet_protocol_names()
            with pytest.raises(KeyError):
                PROTOCOLS["dummy"]
        finally:
            unregister("dummy")


class TestDescriptorValidation:
    def test_uppercase_name_rejected(self):
        with pytest.raises(ValueError, match="lowercase"):
            _descriptor(name="OPT")

    def test_non_identifier_name_rejected(self):
        with pytest.raises(ValueError, match="identifier"):
            _descriptor(name="two hop")

    def test_classless_descriptor_rejected(self):
        with pytest.raises(ValueError, match="agent class, a policy"):
            _descriptor(agent_class=None, policy_class=None)

    def test_unknown_queue_discipline_rejected(self):
        with pytest.raises(ValueError, match="queue discipline"):
            _descriptor(queue_discipline="lifo")

    def test_pairing_without_agent_rejected(self):
        with pytest.raises(ValueError, match="contact pairing"):
            _descriptor(agent_class=None, contact_pairing="fad")

    def test_fifo_discipline_disables_ftd_drop(self):
        assert _descriptor().queue_drop_threshold() == 1.0
        ftd = _descriptor(queue_discipline="ftd")
        assert ftd.queue_drop_threshold() == ftd.params.ftd_drop_threshold


class TestConfigValidation:
    """Construction-time name validation (regression: the error must
    name the registered zoo, including the new baselines)."""

    def test_packet_config_rejects_unknown_protocol(self):
        with pytest.raises(ValueError) as err:
            SimulationConfig(protocol="bogus")
        message = str(err.value)
        assert "bogus" in message
        assert "two_hop" in message and "meeting_rate" in message

    def test_packet_config_rejects_contact_only_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol 'fad'"):
            SimulationConfig(protocol="fad")

    def test_contact_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError) as err:
            ContactSimConfig(policy="bogus")
        message = str(err.value)
        assert "bogus" in message
        assert "two_hop" in message and "meeting_rate" in message

    def test_contact_config_rejects_packet_only_protocol(self):
        with pytest.raises(ValueError, match="unknown policy 'opt'"):
            ContactSimConfig(policy="opt")

    def test_new_baselines_accepted_at_both_levels(self):
        for name in ("two_hop", "meeting_rate"):
            assert SimulationConfig(protocol=name).protocol == name
            assert ContactSimConfig(policy=name).policy == name
