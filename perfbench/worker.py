"""Run one workload in this interpreter and print its result as JSON.

Started by ``run.py`` in a fresh single-threaded interpreter per
workload, so message ids (drawn from a process-global counter), memory
and lazily imported modules never carry over from another workload.

Untraced mode (``--trace 0``) times ``Simulation(config)`` and
``run()`` in CPU seconds (``time.process_time``) round-robin over the
workload's replicate configurations until ``--seconds`` have passed, and
reports the end-to-end metrics, with times scaled to a reference
interpreter speed by :mod:`speed`.  Traced mode (``--trace 1``)
alternates untraced and traced runs of the first replicate and reports
the per-layer metrics of :mod:`tracing`, with the tracing overhead, in
unscaled CPU seconds.

Every run's output is checked (:func:`workloads.check_output`); reruns of
one configuration must give identical statistics, as must a traced run
and its untraced twin, and a telemetry run and its bare twin.  A run
that raises or fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from speed import SpeedSampler, Window
from tracing import Tracer
from workloads import (TELEMETRY_REFERENCES, WORKLOADS, Summary, Workload,
                       bare, check_output, summarize, telemetry_mismatch)

#: Set-up samples taken per run: at least this many, for at least this
#: many CPU seconds (``setup_s`` is their median).
MIN_SETUPS = 9
SETUP_BUDGET_S = 0.5

#: The metric that reports each named layer's self time; the self time
#: of every other layer adds up in ``other.self_cpu_s``.
SELF_METRICS = {layer: f"{layer}.self_cpu_s" for layer in (
    "des", "mobility", "radio", "core", "energy", "contact", "protocols",
    "network", "traffic")}
SELF_METRICS.update({"obs": "obs.emit_cpu_s", "checks": "checks.sweep_cpu_s"})


@dataclass
class Sample:
    """One checked run: its CPU time, statistics and inspected figures."""

    run_s: float  # less the speed sampler's own cost
    scale: float  # to the reference speed (1.0 when not sampled)
    summary: Summary
    figures: Any = None


class Ledger:
    """Counts attempted and failed runs; reports failures on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        print(f"FAILED: {problem}", file=sys.stderr)

    def run(self, workload: Workload, config: Any,
            sampler: Optional[SpeedSampler] = None,
            tracer: Optional[Tracer] = None,
            inspect: Optional[Callable[[Any, Any, float], Any]] = None
            ) -> Optional[Sample]:
        """Build, run and check ``config`` once.

        ``sampler`` samples the interpreter's speed during ``run()``;
        ``tracer`` records spans; ``inspect(sim, result, run_s)`` may
        extract more figures before the simulation is dropped.  Returns
        None, and records a failure, when the run raises or its output
        fails a check.
        """
        self.attempted += 1
        gc.collect()  # every run starts from the same clean heap
        clock = time.process_time
        window = Window()
        sampling = (contextlib.nullcontext(window) if sampler is None
                    else sampler.sampling())
        try:
            if tracer is not None:
                tracer.install()
            try:
                sim = workload.build(config)
                if tracer is not None:
                    tracer.mark_built()
                with sampling as window:
                    t0 = clock()
                    result = sim.run()
                    t1 = clock()
            finally:
                if tracer is not None:
                    tracer.uninstall()
        except Exception:  # a crashing run is a failed run, not a crash
            self.fail(f"{workload.name} seed {config.seed} raised:\n"
                      + traceback.format_exc())
            return None
        problems = check_output(sim, result)
        if problems:
            self.fail(f"{workload.name} seed {config.seed}: "
                      + "; ".join(problems))
            return None
        run_s = t1 - t0 - window.cost_s
        scale = 1.0 if sampler is None else sampler.scale(window)
        figures = None if inspect is None else inspect(sim, result, run_s)
        return Sample(run_s, scale, summarize(sim, result), figures)


def _same(ledger: Ledger, what: str, expected: Summary,
          observed: Summary) -> None:
    if expected.fingerprint != observed.fingerprint:
        ledger.fail(f"{what}: statistics differ")


def _reference(ledger: Ledger, workload: Workload, config: Any
               ) -> Optional[Summary]:
    """The bare twin of a telemetry config, run once for comparison."""
    sample = ledger.run(workload, bare(config))
    return None if sample is None else sample.summary


def _check_telemetry(ledger: Ledger, reference: Optional[Summary],
                     observed: Summary) -> None:
    if reference is None:
        return
    problem = telemetry_mismatch(reference, observed)
    if problem is not None:
        ledger.fail(problem)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# untraced: end-to-end metrics
# ----------------------------------------------------------------------
def _setup_samples(workload: Workload, configs: List[Any],
                   sampler: SpeedSampler) -> List[float]:
    """Time ``Simulation(config)`` round-robin over the replicates, at
    least :data:`MIN_SETUPS` times and for :data:`SETUP_BUDGET_S`, scaled
    to the reference speed."""
    clock = time.process_time
    times: List[float] = []
    with sampler.sampling() as window:
        spent = 0.0
        while len(times) < MIN_SETUPS or spent < SETUP_BUDGET_S:
            gc.collect()
            cost = window.cost_s
            t0 = clock()
            workload.build(configs[len(times) % len(configs)])
            elapsed = clock() - t0
            spent += elapsed
            times.append(elapsed - (window.cost_s - cost))
    scale = sampler.scale(window)
    return [scale * t for t in times]


def measure(workload: Workload, seed: int, seconds: float,
            scratch: Path) -> Dict[str, Any]:
    """Time the workload's replicates round-robin for ``seconds``."""
    ledger = Ledger()
    deadline = time.perf_counter() + seconds
    configs = workload.configs(seed, scratch)
    replicates = len(configs)
    duration_s = configs[0].duration_s
    sampler = SpeedSampler()

    setups = _setup_samples(workload, configs, sampler)

    references: List[Optional[Summary]] = [None] * replicates
    if workload.telemetry:
        for index in range(min(replicates, TELEMETRY_REFERENCES)):
            references[index] = _reference(ledger, workload, configs[index])

    first: List[Optional[Summary]] = [None] * replicates
    cpu: List[List[float]] = [[] for _ in configs]
    raw: List[float] = []
    runs = 0
    # One full pass, then on to the deadline; the traced mode always
    # reruns a seed, this mode whenever the time allows.
    while runs < replicates or time.perf_counter() < deadline:
        index = runs % replicates
        runs += 1
        sample = ledger.run(workload, configs[index], sampler)
        if sample is None:
            continue
        summary = sample.summary
        cpu[index].append(sample.scale * sample.run_s)
        raw.append(sample.run_s)
        if first[index] is None:
            first[index] = summary
            _check_telemetry(ledger, references[index], summary)
        else:
            _same(ledger, f"rerun of {workload.name} seed "
                  f"{configs[index].seed}", first[index], summary)
        if runs > 50 * replicates:
            break

    done = [s for s in first if s is not None]
    per_replicate = [statistics.median(c) for c in cpu if c]
    run_cpu = statistics.fmean(per_replicate) if per_replicate else 0.0
    generated = sum(s.generated for s in done)
    delivered = sum(s.delivered for s in done)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "run_cpu_s": _metric(run_cpu, "s"),
        "sim_s_per_cpu_s": _metric(
            duration_s / run_cpu if run_cpu else 0.0, "sim_s/cpu_s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "delivery_ratio": _metric(delivered / generated if generated else 0.0,
                                  "ratio"),
        "mean_delay_s": _metric(
            sum(s.delay_sum_s for s in done) / delivered if delivered
            else 0.0, "s"),
        "tx_per_delivery": _metric(
            sum(s.transmissions for s in done) / delivered if delivered
            else 0.0, "tx/delivery"),
    }
    notes = {"run_samples": sum(len(c) for c in cpu),
             "raw_run_cpu_s_median": statistics.median(raw) if raw else 0.0,
             "replicates": replicates, "setup_samples": len(setups),
             "sim_duration_s": duration_s}
    return _result(ledger, metrics, notes)


# ----------------------------------------------------------------------
# traced: per-layer metrics
# ----------------------------------------------------------------------
def _layer_metrics(workload: Workload, tracer: Tracer, sim: Any,
                   result: Any, run_s: float) -> Dict[str, float]:
    """Per-layer figures of one traced run."""
    count, total = tracer.count, tracer.total
    layers = tracer.layer_self()
    root = total("network:run") + total("contact:run")
    packet = workload.level == "packet"
    fired = result.events_fired if packet else 0
    scheduled = tracer.counters["des.scheduled"]
    des_self = layers.get("des", 0.0)
    out: Dict[str, float] = {
        "des.events_fired": fired,
        "des.events_scheduled": scheduled,
        "des.fired_frac": fired / scheduled if scheduled else 0.0,
        "des.self_cpu_s": des_self,
        "des.cpu_us_per_event": 1e6 * des_self / fired if fired else 0.0,
        "mobility.ticks": count("mobility:step"),
        "mobility.step_cpu_s": total("mobility:step"),
        "mobility.neighbor_queries": count("mobility:query"),
        "mobility.query_cpu_s": total("mobility:query"),
        "radio.carrier_senses": count("radio:carrier_sense"),
        "core.callbacks": count("core:dispatch"),
        "core.queue_ops": count("core:queue"),
        "core.queue_cpu_s": total("core:queue"),
        "core.ftd_calls": tracer.counters["core.ftd_calls"],
        "energy.transitions": count("energy:transition"),
        "contact.scans": count("contact:scan"),
        "contact.scan_cpu_s": (total("contact:scan")
                               - total("obs:emit", parent="contact:scan")),
        "contact.exchange_cpu_s": tracer.self_time("contact:exchange"),
        "protocols.decisions": count("protocols:decision"),
        "protocols.decision_cpu_s": total("protocols:decision"),
        "obs.events_emitted": count("obs:emit"),
        "obs.trace_bytes": 0,
        "checks.sweeps": count("checks:sweep"),
        "trace.run_cpu_s": run_s,
        "trace.self_sum_frac": sum(layers.values()) / root if root else 0.0,
    }
    for layer, name in SELF_METRICS.items():
        out[name] = layers.get(layer, 0.0)
    out["other.self_cpu_s"] = sum(v for k, v in layers.items()
                                  if k not in SELF_METRICS)

    def build_total(name: str) -> float:
        return sum(e[1] for (_, n), e in tracer.build_edges.items()
                   if n == name)

    out["network.build_cpu_s"] = (build_total("network:build")
                                  + build_total("contact:build"))
    out["network.build_mobility_cpu_s"] = build_total("network:build_mobility")
    out["network.build_nodes_cpu_s"] = build_total("network:build_nodes")

    if packet:
        stats = sim.medium.stats
        heard = stats.frames_delivered + stats.frames_corrupted
        totals = result.agent_totals
        attempts = totals.get("tx_attempts", 0)
        out.update({
            "radio.frames_sent": result.transmissions,
            "radio.corrupted_frac": (stats.frames_corrupted / heard
                                     if heard else 0.0),
            "core.tx_success_frac": (totals.get("multicasts_confirmed", 0)
                                     / attempts if attempts else 0.0),
            "core.queue_drops": (result.queue_drops_overflow
                                 + result.queue_drops_threshold),
            "energy.mean_power_mw": result.average_power_mw,
            "contact.contacts": 0, "contact.usable_frac": 0.0,
            "contact.transfer_frac": 0.0,
        })
        if sim.config.trace_path is not None:
            out["obs.trace_bytes"] = Path(sim.config.trace_path).stat().st_size
    else:
        offers = tracer.counters["contact.offers"]
        drops = sum(p.queue.stats.drops_overflow + p.queue.stats.drops_threshold
                    for p in sim.policies.values())
        out.update({
            "radio.frames_sent": 0, "radio.corrupted_frac": 0.0,
            "core.tx_success_frac": 0.0, "core.queue_drops": drops,
            "energy.mean_power_mw": 0.0,
            "contact.contacts": result.contacts,
            "contact.usable_frac": (result.usable_contacts / result.contacts
                                    if result.contacts else 0.0),
            "contact.transfer_frac": (result.transfers / offers
                                      if offers else 0.0),
        })
    return out


def measure_traced(workload: Workload, seed: int, seconds: float,
                   scratch: Path, spans_path: Path) -> Dict[str, Any]:
    """Alternate untraced and traced runs of the first replicate."""
    ledger = Ledger()
    deadline = time.perf_counter() + seconds
    config = workload.configs(seed, scratch)[0]
    reference = (_reference(ledger, workload, config)
                 if workload.telemetry else None)

    untraced: List[float] = []
    traced: List[Dict[str, float]] = []
    baseline: Optional[Summary] = None
    last: Optional[Tracer] = None
    for _ in range(50):
        if traced and time.perf_counter() >= deadline:
            break
        sample = ledger.run(workload, config)
        if sample is not None:
            untraced.append(sample.run_s)
            if baseline is None:
                baseline = sample.summary
                _check_telemetry(ledger, reference, baseline)
            else:
                _same(ledger, "untraced rerun", baseline, sample.summary)

        tracer = Tracer()
        sample = ledger.run(
            workload, config, None, tracer,
            lambda sim, result, run_s: _layer_metrics(
                workload, tracer, sim, result, run_s))
        if sample is None:
            continue
        if baseline is not None:
            _same(ledger, "traced run vs untraced run", baseline,
                  sample.summary)
        figures = sample.figures
        if abs(figures["trace.self_sum_frac"] - 1.0) > 1e-6:
            ledger.fail("per-layer self times do not add up to the traced "
                        f"run: {figures['trace.self_sum_frac']!r}")
        traced.append(figures)
        last = tracer

    metrics: Dict[str, Dict[str, object]] = {}
    if traced:
        for name in traced[0]:
            metrics[name] = _metric(
                statistics.median(t[name] for t in traced), unit_of(name))
        traced_cpu = statistics.median(t["trace.run_cpu_s"] for t in traced)
        plain_cpu = statistics.median(untraced) if untraced else 0.0
        metrics["trace.untraced_run_cpu_s"] = _metric(plain_cpu, "s")
        metrics["trace.overhead_frac"] = _metric(
            traced_cpu / plain_cpu - 1.0 if plain_cpu else 0.0, "ratio")
    if last is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(
            {"workload": workload.name, "seed": config.seed,
             "missing_boundaries": last.missing, "spans": last.to_json()},
            indent=1) + "\n", encoding="utf-8")
    notes = {"traced_runs": len(traced), "untraced_runs": len(untraced),
             "spans_file": str(spans_path)}
    return _result(ledger, metrics, notes)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_cpu_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_us_per_event"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mw"):
        return "mW"
    return "count"


def _result(ledger: Ledger, metrics: Dict[str, Any],
            notes: Dict[str, Any]) -> Dict[str, Any]:
    return {"correct": ledger.failed == 0 and ledger.attempted > 0,
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": metrics, "notes": notes}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for trace files and span dumps")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    scratch = args.out / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = args.out / f"spans-{workload.name}-seed{args.seed}.json"
            doc = measure_traced(workload, args.seed, args.seconds, scratch,
                                 spans)
        else:
            doc = measure(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
