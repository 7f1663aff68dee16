"""Registry conformance suite (PR 10).

Every protocol in the :mod:`repro.protocols` registry must actually
run: a short seeded simulation at each level it declares, with the
invariant checker armed (the suite's conftest forces
``REPRO_CHECK_INVARIANTS``), a lossless serialize round-trip, and
byte-identical results between the serial and process-pool runners.
A protocol that registers but fails any of these is broken, no matter
what its unit tests say.
"""

import pytest

from repro.codec import from_plain, to_plain
from repro.contact.simulator import ContactSimConfig, ContactSimResult
from repro.harness.runner import Job, ProcessPoolRunner, SerialRunner
from repro.harness.serialize import canonical_json
from repro.network.config import SimulationConfig
from repro.network.simulation import SimulationResult, run_simulation
from repro.protocols import (
    contact_policy_names,
    get_protocol,
    packet_protocol_names,
    protocol_names,
)


def _packet_config(name, seed=11):
    return SimulationConfig(protocol=name, seed=seed, duration_s=250.0,
                            n_sensors=8, n_sinks=1)


def _contact_config(name, seed=11):
    return ContactSimConfig(policy=name, seed=seed, duration_s=1500.0,
                            n_sensors=10, n_sinks=1)


class TestDescriptorConformance:
    @pytest.mark.parametrize("name", protocol_names())
    def test_descriptor_is_complete(self, name):
        descriptor = get_protocol(name)
        assert descriptor.packet_capable or descriptor.contact_capable
        assert descriptor.description
        assert descriptor.citation
        assert 0.0 < descriptor.queue_drop_threshold() <= 1.0


class TestPacketLevel:
    @pytest.mark.parametrize("name", packet_protocol_names())
    def test_runs_and_round_trips(self, name):
        cfg = _packet_config(name)
        rebuilt = SimulationConfig.from_dict(cfg.to_dict())
        assert rebuilt == cfg
        result = run_simulation(cfg)
        assert result.messages_generated > 0
        assert 0.0 <= result.delivery_ratio <= 1.0
        encoded = to_plain(result)
        assert canonical_json(to_plain(from_plain(
            SimulationResult, encoded))) == canonical_json(encoded)


class TestContactLevel:
    @pytest.mark.parametrize("name", contact_policy_names())
    def test_runs_and_round_trips(self, name):
        cfg = _contact_config(name)
        rebuilt = ContactSimConfig.from_dict(cfg.to_dict())
        assert rebuilt == cfg
        result = SerialRunner().run_jobs([Job("contact", cfg)])[0]
        assert result.messages_generated > 0
        assert 0.0 <= result.delivery_ratio <= 1.0
        encoded = to_plain(result)
        assert canonical_json(to_plain(from_plain(
            ContactSimResult, encoded))) == canonical_json(encoded)


class TestRunnerEquivalence:
    def test_serial_and_pool_byte_identical_across_the_zoo(self):
        """One batch holding every protocol at every level it declares:
        the parallel backend must reproduce the serial bytes exactly."""
        jobs = [Job("packet", _packet_config(name))
                for name in packet_protocol_names()]
        jobs += [Job("contact", _contact_config(name))
                 for name in contact_policy_names()]
        serial = SerialRunner().run_jobs(jobs)
        pooled = ProcessPoolRunner(max_workers=2).run_jobs(jobs)
        for job, a, b in zip(jobs, serial, pooled):
            if job.kind == "packet":
                # The flat summary view excludes wall-clock timing: it is
                # the byte-identical contract (see test_determinism).
                assert canonical_json(a.to_dict()) == canonical_json(
                    b.to_dict()), job.config.protocol
            else:
                assert canonical_json(to_plain(a)) == canonical_json(
                    to_plain(b)), job.config.policy
