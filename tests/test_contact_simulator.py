"""Integration tests for the contact-level simulator."""

import pytest

from repro.contact import ContactSimConfig
from repro.contact.simulator import ContactSimulation, run_contact_simulation
from repro.protocols.registry import contact_policy_names


SHORT = dict(duration_s=600.0, n_sensors=25, n_sinks=2, seed=11)


class TestConfig:
    def test_defaults_match_paper_topology(self):
        cfg = ContactSimConfig()
        assert cfg.n_sensors == 100
        assert cfg.n_sinks == 3
        assert cfg.area_m == 150.0
        assert cfg.comm_range_m == 10.0
        assert cfg.mean_arrival_s == 120.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ContactSimConfig(policy="teleport")

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            ContactSimConfig(mac_efficiency=0.0)


class TestRuns:
    def test_every_policy_runs(self):
        for policy in contact_policy_names():
            r = run_contact_simulation(ContactSimConfig(policy=policy,
                                                        **SHORT))
            assert r.messages_generated > 0, policy
            assert 0.0 <= r.delivery_ratio <= 1.0, policy
            assert r.messages_delivered <= r.messages_generated

    def test_deterministic_given_seed(self):
        a = run_contact_simulation(ContactSimConfig(policy="fad", **SHORT))
        b = run_contact_simulation(ContactSimConfig(policy="fad", **SHORT))
        assert a.messages_delivered == b.messages_delivered
        assert a.transfers == b.transfers

    def test_delays_causal_and_hops_positive(self):
        cfg = ContactSimConfig(policy="fad", **SHORT)
        sim = ContactSimulation(cfg)
        sim.run()
        for record in sim.collector.deliveries.values():
            assert record.delivered_at >= record.created_at
            assert record.hops >= 1

    def test_direct_deliveries_are_single_hop(self):
        cfg = ContactSimConfig(policy="direct", duration_s=1500.0,
                               n_sensors=30, n_sinks=3, seed=2)
        sim = ContactSimulation(cfg)
        r = sim.run()
        assert r.messages_delivered > 0
        for record in sim.collector.deliveries.values():
            assert record.hops == 1

    def test_epidemic_dominates_direct(self):
        """Flooding can only improve on direct transmission."""
        direct = run_contact_simulation(
            ContactSimConfig(policy="direct", duration_s=2000.0,
                             n_sensors=40, n_sinks=2, seed=5))
        epidemic = run_contact_simulation(
            ContactSimConfig(policy="epidemic", duration_s=2000.0,
                             n_sensors=40, n_sinks=2, seed=5))
        assert epidemic.delivery_ratio >= direct.delivery_ratio - 0.02

    def test_fad_beats_direct(self):
        """The paper's scheme must exploit relaying at contact level."""
        direct = run_contact_simulation(
            ContactSimConfig(policy="direct", duration_s=2500.0,
                             n_sensors=40, n_sinks=1, seed=7))
        fad = run_contact_simulation(
            ContactSimConfig(policy="fad", duration_s=2500.0,
                             n_sensors=40, n_sinks=1, seed=7))
        assert fad.delivery_ratio >= direct.delivery_ratio

    def test_zero_capacity_contacts_transfer_nothing(self):
        r = run_contact_simulation(
            ContactSimConfig(policy="epidemic", duration_s=400.0,
                             n_sensors=20, n_sinks=2, seed=3,
                             bandwidth_bps=1.0))  # < 1 message per contact
        assert r.transfers == 0
        assert r.messages_delivered == 0

    def test_transfers_per_delivery_overhead(self):
        r = run_contact_simulation(ContactSimConfig(policy="fad", **SHORT))
        overhead = r.transfers_per_delivery()
        if r.messages_delivered:
            assert overhead >= 1.0
