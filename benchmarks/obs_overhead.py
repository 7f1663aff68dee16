#!/usr/bin/env python
"""Measure the telemetry subsystem's runtime overhead -> BENCH_obs.json.

Times three variants of the same seeded reduced-scale run, in CPU time
(``time.process_time``), which on a shared machine is far steadier than
wall clock:

* ``disabled`` — the default path every user gets: every
  instrumentation site is a single ``self._bus is None`` check;
* ``enabled``  — bus + metrics registry + span tracker subscribed;
* ``traced``   — everything above plus the streaming JSONL exporter.

It also micro-times the disabled guard itself and multiplies by the
run's event count, which bounds the disabled-path overhead from above
without needing to rebuild the pre-instrumentation code.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py [--out BENCH_obs.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import tempfile
import time
import timeit
from typing import Dict, List

from repro.network.config import SimulationConfig
from repro.network.simulation import run_simulation
from repro.obs.export import read_trace

BENCH = dict(protocol="opt", n_sensors=30, n_sinks=3,
             duration_s=600.0, seed=9)


def _time_variants(repeats: int,
                   variants: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Median CPU time of ``repeats`` runs of each variant (seconds).

    The variants take turns within each repeat, so slow drift in the
    machine's load falls on all of them alike.  One untimed warm-up
    round first, so import costs and allocator / branch-predictor
    warm-up don't bias whichever variant runs first.
    """
    times: Dict[str, List[float]] = {name: [] for name in variants}
    for i in range(repeats + 1):
        for name, extra in variants.items():
            config = SimulationConfig(**BENCH, **extra)  # type: ignore[arg-type]
            t0 = time.process_time()
            run_simulation(config)
            if i > 0:
                times[name].append(time.process_time() - t0)
    return {name: statistics.median(runs) for name, runs in times.items()}


def _guard_ns() -> float:
    """Cost of one disabled-path guard (`bus = self._bus; if bus is not
    None:`), in nanoseconds."""

    class Site:
        __slots__ = ("_bus",)

        def __init__(self) -> None:
            self._bus = None

    site = Site()
    n = 1_000_000

    def loop() -> None:
        for _ in range(n):
            bus = site._bus
            if bus is not None:  # pragma: no cover - never taken
                raise AssertionError

    return min(timeit.repeat(loop, timer=time.process_time, number=1,
                             repeat=5)) / n * 1e9


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_obs.json")
    parser.add_argument("--repeats", type=int, default=11)
    args = parser.parse_args()

    print(f"timing {args.repeats} runs per variant "
          f"({BENCH['n_sensors']} sensors, {BENCH['duration_s']:.0f} s) ...")
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = pathlib.Path(tmp) / "bench.jsonl"
        medians = _time_variants(args.repeats, {
            "disabled": {},
            "enabled": {"telemetry": True},
            "traced": {"trace_path": str(trace_path)},
        })
        events_per_run = len(read_trace(trace_path))
    disabled_s, enabled_s, traced_s = (
        medians["disabled"], medians["enabled"], medians["traced"])

    guard_ns = _guard_ns()
    # Every emitted event crossed at least one guard; scale by the event
    # count to bound what the guards cost when telemetry is off.
    disabled_bound_pct = 100.0 * events_per_run * guard_ns * 1e-9 / disabled_s

    payload = {
        "config": dict(BENCH),
        "clock": "process_time",
        "repeats": args.repeats,
        "disabled_s": round(disabled_s, 4),
        "enabled_s": round(enabled_s, 4),
        "traced_s": round(traced_s, 4),
        "enabled_overhead_pct": round(
            100.0 * (enabled_s - disabled_s) / disabled_s, 2),
        "traced_overhead_pct": round(
            100.0 * (traced_s - disabled_s) / disabled_s, 2),
        "events_per_run": events_per_run,
        "guard_ns": round(guard_ns, 2),
        "disabled_overhead_pct_bound": round(disabled_bound_pct, 4),
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
