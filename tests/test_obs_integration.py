"""Integration tests: telemetry in real simulations, CLI, golden.

The central acceptance property lives here: enabling telemetry (bus,
metrics, spans, trace export) must not change a seeded run's results
in any way — ``SimulationResult.to_dict()`` stays byte-identical.
"""

import json
import pathlib
import re

import pytest

from repro.checks.invariants import InvariantViolation
from repro.contact.detector import ContactTracer
from repro.des import EventScheduler
from repro.harness.cli import main as cli_main
from repro.metrics.timeseries import TimeSeriesProbe
from repro.mobility import Area, MobilityManager, StationaryMobility
from repro.network.config import SimulationConfig
from repro.network.simulation import Simulation, run_simulation
from repro.obs.bus import TelemetryBus
from repro.obs.events import event_from_dict
from repro.obs.export import read_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import TraceRecorder
from repro.obs.spans import SpanTracker

from tests.data.regen_report_golden import FAULTED, render_golden

DATA = pathlib.Path(__file__).resolve().parent / "data"

SMOKE = dict(protocol="opt", n_sensors=10, n_sinks=2,
             duration_s=500.0, seed=5)


# ----------------------------------------------------------------------
# the equivalence guarantee
# ----------------------------------------------------------------------
class TestTelemetryEquivalence:
    def test_enabling_telemetry_does_not_change_results(self):
        plain = run_simulation(SimulationConfig(**SMOKE))
        instrumented = run_simulation(
            SimulationConfig(telemetry=True, **SMOKE))
        assert plain.to_dict() == instrumented.to_dict()
        assert plain.telemetry is None
        assert instrumented.telemetry is not None

    def test_trace_export_does_not_change_results(self, tmp_path):
        plain = run_simulation(SimulationConfig(**SMOKE))
        traced = run_simulation(SimulationConfig(
            trace_path=str(tmp_path / "run.jsonl"), **SMOKE))
        assert plain.to_dict() == traced.to_dict()

    def test_telemetry_summary_shape(self):
        result = run_simulation(SimulationConfig(telemetry=True, **SMOKE))
        summary = result.telemetry
        assert set(summary) == {"metrics", "spans"}
        counters = summary["metrics"]["counters"]
        assert counters["messages_generated"] == result.messages_generated
        assert counters["messages_delivered"] == result.messages_delivered
        assert "async" in summary["spans"]
        json.dumps(summary)  # JSON-plain

    def test_seeded_trace_is_reproducible(self, tmp_path):
        # Message ids come from a process-global counter, so byte-identity
        # is a *fresh-process* guarantee (re-running the CLI rewrites the
        # same file): run each replica in its own interpreter.
        import subprocess
        import sys

        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code = (
                "from repro.network.config import SimulationConfig\n"
                "from repro.network.simulation import run_simulation\n"
                f"run_simulation(SimulationConfig(trace_path={str(path)!r}, "
                f"**{SMOKE!r}))\n"
            )
            subprocess.run([sys.executable, "-c", code], check=True)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# ----------------------------------------------------------------------
# trace files from a run
# ----------------------------------------------------------------------
class TestRunTraces:
    def test_jsonl_trace_has_expected_topics(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_simulation(SimulationConfig(trace_path=str(path), **SMOKE))
        events = read_trace(path)
        topics = {e["topic"] for e in events}
        assert {"frame.tx", "phase.enter", "phase.exit",
                "radio.sleep", "radio.wake",
                "message.generated"} <= topics
        times = [e["time"] for e in events]
        assert times == sorted(times)  # simulated-time ordered

    def test_csv_trace_path(self, tmp_path):
        path = tmp_path / "run.csv"
        result = run_simulation(SimulationConfig(trace_path=str(path),
                                                 **SMOKE))
        events = read_trace(path)
        tx = [e for e in events if e["topic"] == "frame.tx"]
        assert len(tx) == result.transmissions

    @pytest.mark.parametrize("name", ["run.jsonl", "run.csv"])
    def test_run_that_raises_still_closes_its_trace(self, tmp_path, name):
        path = tmp_path / name
        sim = Simulation(SimulationConfig(trace_path=str(path), **SMOKE))
        emitted = []
        record = emitted.append
        sim.bus.subscribe("*", record)

        def violate():
            raise InvariantViolation("INV-TEST", "forced mid-run",
                                     time=sim.scheduler.now)

        sim.scheduler.schedule_at(250.0, violate)
        with pytest.raises(InvariantViolation, match="INV-TEST"):
            sim.run()
        # Every line was flushed and parses; the writer left the bus.
        assert len(read_trace(path)) == len(emitted) > 0
        sim.bus.unsubscribe("*", record)
        assert sim.bus.subscriber_count("*") == 0


    @pytest.mark.parametrize("name", ["run.jsonl", "run.csv"])
    def test_replayed_trace_reproduces_run_telemetry(self, tmp_path, name):
        path = tmp_path / name
        result = run_simulation(SimulationConfig(trace_path=str(path),
                                                 **FAULTED))
        bus = TelemetryBus()
        registry = MetricsRegistry()
        registry.bind(bus)
        tracker = SpanTracker()
        tracker.subscribe(bus)
        for data in read_trace(path):
            bus.emit(event_from_dict(data))
        assert result.telemetry["metrics"]["counters"]["faults_injected.radio"]
        assert registry.as_dict() == result.telemetry["metrics"]
        assert tracker.summary() == result.telemetry["spans"]


# ----------------------------------------------------------------------
# bus-only observation: the pre-bus calling conventions are gone
# ----------------------------------------------------------------------
class TestDeprecationShims:
    """The deprecated pre-bus shims are gone; their calls now fail."""

    def test_trace_recorder_requires_a_bus(self):
        sim = Simulation(SimulationConfig(**SMOKE))
        with pytest.raises(TypeError):
            TraceRecorder(sim)
        recorder = TraceRecorder(bus=sim.enable_telemetry())
        sim.run()
        assert len(recorder) > 0

    def test_timeseries_probe_requires_a_bus(self):
        sim = Simulation(SimulationConfig(**SMOKE))
        with pytest.raises(TypeError):
            TimeSeriesProbe(sim, period_s=100.0)

    def test_timeseries_attach_is_warning_free(self, recwarn):
        sim = Simulation(SimulationConfig(**SMOKE))
        probe = TimeSeriesProbe.attach(sim, period_s=100.0)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]
        sim.run()
        assert len(probe.samples) > 0
        assert probe.samples[-1].generated == sim.collector.messages_generated

    def test_contact_tracer_rejects_callback_kwargs(self):
        area = Area(50, 50)
        model = StationaryMobility([0, 1], area,
                                   positions=[(1.0, 1.0), (2.0, 2.0)])
        mgr = MobilityManager(EventScheduler(), area, [model],
                              comm_range=10.0)
        with pytest.raises(TypeError):
            ContactTracer(mgr, on_contact_start=lambda a, b, t: None)
        with pytest.raises(TypeError):
            ContactTracer(mgr, on_contact_end=lambda a, b, t0, t1: None)


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------
class TestCliRoundTrip:
    def test_single_trace_then_report(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert cli_main(["single", "--protocol", "opt", "--sensors", "10",
                         "--sinks", "2", "--duration", "300", "--seed", "5",
                         "--trace", str(trace)]) == 0
        assert trace.exists()
        capsys.readouterr()
        assert cli_main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "frames by kind" in out
        assert "protocol phase spans" in out

    def test_report_on_directory_merges(self, tmp_path, capsys):
        for seed in (1, 2):
            run_simulation(SimulationConfig(
                protocol="opt", n_sensors=8, n_sinks=1, duration_s=200.0,
                seed=seed, trace_path=str(tmp_path / f"s{seed}.jsonl")))
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "merged 2 trace files" in captured.err
        assert "trace events:" in captured.out

    def test_report_missing_path_fails(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path / "nope.jsonl")]) == 1

    def _report_fails_at_line(self, path, line, capsys):
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
            read_trace(path)
        capsys.readouterr()
        assert cli_main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:{line}: " in captured.err

    def _trace(self, tmp_path, name):
        path = tmp_path / name
        run_simulation(SimulationConfig(trace_path=str(path), **SMOKE))
        return path, path.read_text().splitlines(keepends=True)

    def test_report_rejects_a_torn_jsonl_line(self, tmp_path, capsys):
        path, lines = self._trace(tmp_path, "run.jsonl")
        lines[9] = lines[9][:len(lines[9]) // 2] + "\n"
        path.write_text("".join(lines))
        self._report_fails_at_line(path, 10, capsys)

    def test_report_rejects_a_bad_csv_cell(self, tmp_path, capsys):
        path, lines = self._trace(tmp_path, "run.csv")
        lines[9] = lines[9].replace(",", ",x", 1)  # the time cell
        path.write_text("".join(lines))
        self._report_fails_at_line(path, 10, capsys)

    def test_report_rejects_a_torn_csv_line(self, tmp_path, capsys):
        path, lines = self._trace(tmp_path, "run.csv")
        path.write_text("".join(lines[:9]) + lines[9][:8] + "\n")
        self._report_fails_at_line(path, 10, capsys)

    def test_report_rejects_an_unknown_topic(self, tmp_path, capsys):
        path, lines = self._trace(tmp_path, "run.jsonl")
        lines[9] = lines[9].replace('"topic":"', '"topic":"x.', 1)
        path.write_text("".join(lines))
        self._report_fails_at_line(path, 10, capsys)


# ----------------------------------------------------------------------
# golden report
# ----------------------------------------------------------------------
class TestGoldenReport:
    """Seeded traced runs -> reports must render byte-identically.

    Regenerate after intentional format changes with::

        PYTHONPATH=src python tests/data/regen_report_golden.py
    """

    @staticmethod
    def _check(name, tmp_path):
        golden = (DATA / name).read_text()
        assert render_golden(name, tmp_path) == golden

    def test_report_matches_golden(self, tmp_path):
        self._check("report_smoke.txt", tmp_path)

    def test_faulted_csv_report_matches_golden(self, tmp_path):
        self._check("report_faults.txt", tmp_path)

    def test_contact_report_matches_golden(self, tmp_path):
        self._check("report_contact.txt", tmp_path)
