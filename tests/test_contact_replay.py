"""Contact-level replay mode + the S1/S2 contact-layer bugfix regressions."""

import pytest

from repro.codec import to_plain
from repro.contact.simulator import (
    ContactSimConfig,
    ContactSimulation,
    run_contact_simulation,
)
from repro.core.message import DataMessage, fresh_message_id
from repro.harness.runner import Job, SerialRunner, TracingRunner
from repro.harness.serialize import canonical_json
from repro.obs.bus import ALL_TOPICS
from repro.obs.export import read_trace

PLAN = """\
a contact 100 160 0 1 10000
a contact 200 260 1 2 10000
a contact 300 360 0 2 10000
"""


def _plan_file(tmp_path, text=PLAN):
    path = tmp_path / "plan.txt"
    path.write_text(text)
    return str(path)


def _replay_config(tmp_path, text=PLAN, **overrides):
    kwargs = dict(policy="fad", seed=3, duration_s=500.0, n_sensors=2,
                  n_sinks=1, mean_arrival_s=30.0,
                  plan_path=_plan_file(tmp_path, text))
    kwargs.update(overrides)
    return ContactSimConfig(**kwargs)


class TestConfigValidationS1:
    """S1: ContactSimConfig rejected none of these before the fix."""

    @pytest.mark.parametrize("kwargs,fragment", [
        ({"speed_min_mps": -1.0}, "speed"),
        ({"speed_min_mps": 3.0, "speed_max_mps": 1.0}, "speed"),
        ({"queue_capacity": 0}, "queue capacity"),
        ({"queue_capacity": -5}, "queue capacity"),
        ({"comm_range_m": 0.0}, "geometry"),
        ({"area_m": -150.0}, "geometry"),
        ({"zones_per_side": 0}, "zones_per_side"),
        ({"mean_arrival_s": 0.0}, "arrival"),
        ({"message_bits": 0}, "bandwidth"),
        ({"bandwidth_bps": 0.0}, "bandwidth"),
        ({"duration_s": float("nan")}, "duration_s must be finite"),
        ({"duration_s": float("inf")}, "duration_s must be finite"),
        ({"mean_arrival_s": float("nan")}, "mean_arrival_s must be finite"),
        ({"tick_s": float("nan")}, "tick_s must be finite"),
        ({"exit_probability": 2.0}, "exit_probability"),
        ({"exit_probability": -0.1}, "exit_probability"),
    ])
    def test_invalid_values_rejected(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ContactSimConfig(**kwargs)

    def test_defaults_still_valid(self):
        cfg = ContactSimConfig()
        assert cfg.policy == "fad"

    def test_scenario_must_be_spec_or_dict(self):
        with pytest.raises(ValueError, match="scenario"):
            ContactSimConfig(scenario="campus")


class TestTransferTimestampsS2:
    """S2: transfer instants must stay inside [start, end], delay >= 0."""

    def _sim(self, policy="direct", **overrides):
        kwargs = dict(policy=policy, seed=1, duration_s=1000.0,
                      n_sensors=2, n_sinks=1,
                      # With mac_efficiency 0.5 and 1000-bit messages a
                      # 200 bps link fits exactly one transfer in a 10 s
                      # window: per-message 5 s, usable 5 s, budget 1.
                      bandwidth_bps=200.0, mean_arrival_s=1e9)
        kwargs.update(overrides)
        return ContactSimulation(ContactSimConfig(**kwargs))

    def _enqueue(self, sim, node, created_at):
        message = DataMessage(message_id=fresh_message_id(), origin=node,
                              created_at=created_at,
                              size_bits=sim.config.message_bits)
        sim.collector.record_generation(message.message_id, created_at,
                                        origin=node)
        sim.policies[node].enqueue_new(message)
        return message

    def test_future_dated_message_not_delivered_before_creation(self):
        # Before the fix the clamp path could stamp a delivery inside a
        # window that closed *before* the message existed, producing a
        # negative delay.
        sim = self._sim()
        self._enqueue(sim, node=1, created_at=100.0)
        sim._on_contact_end(0, 1, 10.0, 20.0)
        assert sim.collector.messages_delivered == 0
        assert sim.transfers == 0

    def test_stale_copy_not_delivered_before_it_was_received(self):
        # A relayed copy's floor is its own arrival time, not just the
        # message's creation time.
        sim = self._sim(policy="epidemic")
        self._enqueue(sim, node=1, created_at=0.0)
        sim._on_contact_end(1, 2, 40.0, 60.0)  # copy reaches node 2
        assert sim.collector.messages_delivered == 0
        sim._on_contact_end(0, 2, 10.0, 20.0)  # closed before the relay
        assert sim.collector.messages_delivered == 0
        sim._on_contact_end(0, 2, 70.0, 80.0)  # legitimate later window
        assert sim.collector.messages_delivered == 1
        record = next(iter(sim.collector.deliveries.values()))
        assert 70.0 <= record.delivered_at <= 80.0
        assert record.delay >= 0.0

    def test_zero_duration_contact_transfers_nothing(self):
        sim = self._sim()
        self._enqueue(sim, node=1, created_at=0.0)
        sim._on_contact_end(0, 1, 5.0, 5.0)
        assert sim.transfers == 0
        assert sim.collector.messages_delivered == 0

    def test_single_transfer_lands_mid_window(self):
        sim = self._sim()
        self._enqueue(sim, node=1, created_at=0.0)
        sim._on_contact_end(0, 1, 10.0, 20.0)
        record = next(iter(sim.collector.deliveries.values()))
        assert record.delivered_at == 15.0  # start + 0.5 * slot

    def test_mid_window_creation_floors_the_timestamp(self):
        sim = self._sim()
        self._enqueue(sim, node=1, created_at=18.0)
        sim._on_contact_end(0, 1, 10.0, 20.0)
        record = next(iter(sim.collector.deliveries.values()))
        assert record.delivered_at == 18.0
        assert record.delay == 0.0

    def test_replay_run_never_produces_negative_delay(self, tmp_path):
        result = run_contact_simulation(_replay_config(tmp_path))
        sim = ContactSimulation(_replay_config(tmp_path))
        sim.run()
        assert result.messages_delivered > 0
        assert all(r.delay >= 0.0 for r in sim.collector.deliveries.values())


class TestReplay:
    def test_replay_counts_plan_windows(self, tmp_path):
        result = run_contact_simulation(_replay_config(tmp_path))
        assert result.contacts == 3
        assert result.messages_generated > 0
        assert result.messages_delivered > 0

    def test_time_zero_window_is_replayed(self, tmp_path):
        # The geometric pipeline's first scan happens at t=0; replay must
        # likewise not drop a window that opens at time zero.
        cfg = _replay_config(tmp_path, text="a contact 0 400 0 1 10000\n",
                             n_sensors=1)
        result = run_contact_simulation(cfg)
        assert result.contacts == 1
        assert result.messages_delivered > 0

    def test_windows_beyond_horizon_dropped(self, tmp_path):
        text = ("a contact 50 100 0 1 10000\n"
                "a contact 300 400 0 1 10000\n")
        cfg = _replay_config(tmp_path, text=text, n_sensors=1,
                             duration_s=200.0)
        assert run_contact_simulation(cfg).contacts == 1

    def test_straddling_window_truncated(self, tmp_path):
        cfg = _replay_config(tmp_path, text="a contact 100 9000 0 1 10000\n",
                             n_sensors=1, duration_s=200.0)
        sim = ContactSimulation(cfg)
        result = sim.run()
        assert result.contacts == 1
        assert all(r.delivered_at <= 200.0
                   for r in sim.collector.deliveries.values())

    def test_plan_with_unknown_nodes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="node ids"):
            ContactSimulation(_replay_config(
                tmp_path, text="a contact 0 10 0 9 10000\n"))

    def test_policy_comparison_autosizes_to_the_plan(self, tmp_path):
        # With the paper default of 3 sinks, a small plan's nodes 0-2
        # would all be traffic-free sinks and every policy would report
        # a flat 0.0 ratio; the comparison must size to the plan.
        from repro.harness.contact_experiments import policy_comparison

        results = policy_comparison(
            duration_s=500.0, policies=["direct"], seed=3,
            plan_path=_plan_file(tmp_path), mean_arrival_s=30.0)
        cfg = results["direct"].config
        assert (cfg.n_sinks, cfg.n_sensors) == (1, 2)
        assert results["direct"].messages_delivered > 0

    def test_replay_is_deterministic(self, tmp_path):
        a = run_contact_simulation(_replay_config(tmp_path))
        b = run_contact_simulation(_replay_config(tmp_path))
        assert canonical_json(to_plain(a)) == canonical_json(to_plain(b))


class TestTracesS4:
    def test_replay_emits_consumable_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        cfg = _replay_config(tmp_path, trace_path=str(trace))
        result = run_contact_simulation(cfg)
        events = read_trace(trace)
        topics = {e["topic"] for e in events}
        assert {"contact.start", "contact.end",
                "message.generated", "message.delivered"} <= topics
        delivered = [e for e in events if e["topic"] == "message.delivered"]
        assert len(delivered) == result.messages_delivered
        assert all(e["delay_s"] >= 0.0 for e in delivered)

    def test_geometric_contact_run_accepts_trace_path(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        cfg = ContactSimConfig(seed=2, duration_s=300.0, n_sensors=5,
                               n_sinks=1, trace_path=str(trace))
        run_contact_simulation(cfg)
        assert {"contact.start", "contact.end"} \
            <= {e["topic"] for e in read_trace(trace)}

    def test_tracing_runner_rewrites_contact_jobs(self, tmp_path):
        cfg = _replay_config(tmp_path)
        runner = TracingRunner(SerialRunner(), tmp_path / "traces")
        (result,) = runner.run_jobs([Job("contact", cfg)])
        assert result.config.trace_path is not None
        files = list((tmp_path / "traces").glob("*.jsonl"))
        assert len(files) == 1
        assert read_trace(files[0])  # non-empty, parseable

    def test_untraced_replay_builds_no_events(self, tmp_path):
        # The exchange is fed the windows directly, so without a trace
        # the replay's contact events reach no one and are not emitted.
        bare = ContactSimulation(_replay_config(tmp_path))
        bare_result = bare.run()
        assert bare.bus.events_emitted == 0
        watched = ContactSimulation(_replay_config(tmp_path))
        topics = []
        watched.bus.subscribe(ALL_TOPICS, lambda e: topics.append(e.topic))
        watched_result = watched.run()
        assert topics == ["contact.start", "contact.end"] * 3
        assert canonical_json(to_plain(bare_result)) == canonical_json(
            to_plain(watched_result))
        assert bare.collector.deliveries == watched.collector.deliveries

    def test_trace_is_deterministic(self, tmp_path):
        # Message ids are numbered per run, so two runs of one config in
        # one process write byte-identical traces.
        traces = []
        for name in ("a.jsonl", "b.jsonl"):
            trace = tmp_path / name
            run_contact_simulation(
                _replay_config(tmp_path, trace_path=str(trace)))
            traces.append(trace.read_bytes())
        assert traces[0] == traces[1]


class TestContactCapacity:
    """A window's transfer budget is floored without losing a slot."""

    def test_fractional_window_plan_keeps_every_slot(self, tmp_path):
        # 0.6 s at 10 kbps with efficiency 0.5 carries exactly three
        # 1000-bit messages; the float quotient 0.3 / 0.1 is a few ULPs
        # under 3, which used to cost the third transfer.
        cfg = _replay_config(tmp_path, text="a contact +0 +0.6 0 1 10000\n",
                             policy="direct", n_sensors=1,
                             mean_arrival_s=1e9, duration_s=10.0)
        sim = ContactSimulation(cfg)
        for _ in range(4):
            message = DataMessage(message_id=fresh_message_id(), origin=1,
                                  created_at=0.0)
            sim.collector.record_generation(message.message_id, 0.0,
                                            origin=1)
            sim.policies[1].enqueue_new(message)
        result = sim.run()
        assert result.transfers == 3
        assert result.messages_delivered == 3

    def test_every_decisecond_window_gets_its_exact_capacity(self):
        from fractions import Fraction

        from repro.contact.detector import Contact

        sim = ContactSimulation(ContactSimConfig(n_sensors=1, n_sinks=1))
        for tenths in range(1, 20_000):
            exact = Fraction(tenths, 10) / 2 * 10_000 // 1000
            window = Contact(0, 1, 0.0, tenths / 10)
            assert sim._contact_capacity(window) == exact, tenths
