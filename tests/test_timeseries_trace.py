"""Tests for the time-series probe and the trace recorder."""

import pytest

from repro import SimulationConfig, Simulation
from repro.metrics.timeseries import TimeSeriesProbe
from repro.obs.recorder import (
    TraceRecorder,
    channel_usage,
    collision_hotspots,
    message_journey,
    node_activity,
)
from repro.radio.frames import FrameKind


def build_sim(**overrides):
    cfg = dict(protocol="nosleep", seed=9, duration_s=300.0,
               n_sensors=15, n_sinks=2)
    cfg.update(overrides)
    return Simulation(SimulationConfig(**cfg))


class TestTimeSeriesProbe:
    def test_samples_at_configured_period(self):
        sim = build_sim()
        probe = TimeSeriesProbe.attach(sim, period_s=50.0)
        sim.run()
        assert len(probe.samples) == 6  # t = 50..300
        assert probe.samples[0].time == pytest.approx(50.0)
        assert probe.samples[-1].time == pytest.approx(300.0)

    def test_series_are_monotone_where_cumulative(self):
        sim = build_sim()
        probe = TimeSeriesProbe.attach(sim, period_s=60.0)
        sim.run()
        generated = probe.series("generated")
        delivered = probe.series("delivered")
        assert generated == sorted(generated)
        assert delivered == sorted(delivered)

    def test_sample_fields_sane(self):
        sim = build_sim()
        probe = TimeSeriesProbe.attach(sim, period_s=100.0)
        sim.run()
        for s in probe.samples:
            assert 0.0 <= s.delivery_ratio <= 1.0
            assert 0.0 <= s.sleeping_fraction <= 1.0
            assert 0.0 <= s.mean_xi <= 1.0
            assert s.mean_power_mw >= 0.0

    def test_arm_idempotent(self):
        sim = build_sim(duration_s=120.0)
        probe = TimeSeriesProbe.attach(sim, period_s=50.0)
        probe.arm()
        sim.run()
        assert len(probe.samples) == 2

    def test_unknown_series_rejected(self):
        sim = build_sim(duration_s=60.0)
        probe = TimeSeriesProbe.attach(sim, period_s=50.0)
        sim.run()
        with pytest.raises(AttributeError):
            probe.series("entropy")

    def test_table_rendering(self):
        sim = build_sim(duration_s=120.0)
        probe = TimeSeriesProbe.attach(sim, period_s=60.0)
        sim.run()
        table = probe.as_table()
        assert "ratio" in table
        assert len(table.splitlines()) == 3

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesProbe.attach(build_sim(), period_s=0.0)


class TestTraceRecorder:
    def test_records_tx_and_rx(self):
        sim = build_sim()
        rec = TraceRecorder(bus=sim.enable_telemetry())
        sim.run()
        assert len(rec.of_kind("tx")) > 0
        assert len(rec.of_kind("rx")) > 0

    def test_frame_kind_filter(self):
        sim = build_sim()
        rec = TraceRecorder(bus=sim.enable_telemetry(),
                            frame_kinds={FrameKind.DATA})
        sim.run()
        assert len(rec) > 0
        assert all(e.frame_kind == "data" for e in rec.events)

    def test_bounded_memory(self):
        sim = build_sim()
        rec = TraceRecorder(bus=sim.enable_telemetry(), max_events=100)
        sim.run()
        assert len(rec) <= 100

    def test_message_journey_report(self):
        sim = build_sim()
        rec = TraceRecorder(bus=sim.enable_telemetry(),
                            frame_kinds={FrameKind.DATA})
        sim.run()
        data_rx = [e for e in rec.of_kind("rx")]
        if data_rx:
            report = message_journey(rec, data_rx[0].message_id)
            assert "receives" in report or "multicasts" in report
        assert "no recorded DATA" in message_journey(rec, 10**9)

    def test_node_activity_and_usage_reports(self):
        sim = build_sim()
        rec = TraceRecorder(bus=sim.enable_telemetry())
        sim.run()
        activity = node_activity(rec, top=3)
        assert "busiest transmitters" in activity
        usage = channel_usage(rec)
        assert any(k.startswith("tx:") for k in usage)
        hotspots = collision_hotspots(rec)
        assert isinstance(hotspots, list)

    def test_trace_does_not_change_results(self):
        plain = build_sim().run()
        traced_sim = build_sim()
        TraceRecorder(bus=traced_sim.enable_telemetry())
        traced = traced_sim.run()
        assert traced.messages_generated == plain.messages_generated
        assert traced.messages_delivered == plain.messages_delivered
        assert traced.transmissions == plain.transmissions
