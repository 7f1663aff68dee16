"""Determinism regression: a seeded config fully determines the result.

``SimulationResult.to_dict()`` deliberately excludes wall-clock timing,
so two runs of the same config — back to back in one process, through
the runner layer, with or without other simulations in between — must
produce byte-identical dicts.  This is the contract the determinism
lint (DET001-DET003) and the injected-RNG architecture exist to protect;
any nondeterminism regression (an unseeded RNG draw, set-order
iteration, wall-clock leak) breaks this test first.
"""

import json
from dataclasses import replace

from repro.contact.simulator import ContactSimConfig, run_contact_simulation
from repro.harness import SerialRunner
from repro.harness.runner import Job
from repro.network import SimulationConfig
from repro.network.simulation import run_simulation

CONFIG = SimulationConfig(protocol="opt", duration_s=600.0,
                          n_sensors=12, n_sinks=2, seed=17)


def canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestDeterminism:
    def test_two_serial_runner_runs_identical(self):
        runner = SerialRunner()
        first, = runner.run_jobs([Job("packet", CONFIG)])
        second, = runner.run_jobs([Job("packet", CONFIG)])
        assert canonical(first) == canonical(second)

    def test_repeat_unaffected_by_interleaved_runs(self):
        # Nothing a run leaves behind in the process (module state,
        # caches) may leak into the next run.
        first = run_simulation(CONFIG)
        run_simulation(CONFIG.with_seed(99))  # perturb process state
        second = run_simulation(CONFIG)
        assert canonical(first) == canonical(second)

    def test_different_seeds_differ(self):
        # Guards against the degenerate "deterministic because constant"
        # failure mode: the seed must actually steer the run.
        a = run_simulation(CONFIG)
        b = run_simulation(CONFIG.with_seed(18))
        assert canonical(a) != canonical(b)

    def test_protocols_deterministic_each(self):
        for protocol in ("opt", "noopt"):
            cfg = SimulationConfig(protocol=protocol, duration_s=300.0,
                                   n_sensors=10, n_sinks=1, seed=5)
            assert canonical(run_simulation(cfg)) == \
                canonical(run_simulation(cfg))


class TestTraceDeterminism:
    """A trace is a pure function of the config, like the result.

    Message ids are numbered per run, so a seeded run traced twice in
    one process writes byte-identical files at both simulation levels.
    """

    def _traces(self, tmp_path, run, config):
        paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        for path in paths:
            run(replace(config, trace_path=str(path)))
        return [path.read_bytes() for path in paths]

    def test_packet_trace_bytes_identical(self, tmp_path):
        first, second = self._traces(tmp_path, run_simulation, replace(
            CONFIG, duration_s=300.0))
        assert b'"message_id"' in first
        assert first == second

    def test_contact_trace_bytes_identical(self, tmp_path):
        first, second = self._traces(
            tmp_path, run_contact_simulation,
            ContactSimConfig(policy="fad", seed=3, duration_s=600.0,
                             n_sensors=10, n_sinks=2))
        assert b'"message_id"' in first
        assert first == second
