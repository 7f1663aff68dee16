"""The repository benchmark: seeded simulator workloads timed in CPU seconds.

Usage, from the root of a checkout::

    python3 perfbench/run.py                       # every workload, a table
    python3 perfbench/run.py --workload paper-opt --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh interpreter (``worker.py``) with one
thread per numeric library and ``REPRO_CHECK_INVARIANTS`` removed from
its environment, so no workload's state, memory or switches leak into
another's.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` a separate traced run's per-layer
metrics, with the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Trace files and span dumps go to ``.perfbench_out/``.

The program under test is built from ``src/`` of the checkout; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("paper-opt", "scale-3k", "contact-fad", "paper-telemetry")
CHILD_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CHECK_INVARIANTS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; its parsed result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=str(ROOT),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: no result within "
                             f"{CHILD_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: worker exited with status "
                             f"{proc.returncode}")
    return json.loads(lines[-1])


def _expected_metrics(trace: int) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _print_table(workload: str, doc: Dict[str, Any]) -> None:
    print(f"== {workload}: correct={doc['correct']} "
          f"attempted={doc['attempted']} failed={doc['failed']} "
          f"failure_rate={doc['failed'] / doc['attempted']:.3f}")
    for key, value in sorted(doc.get("notes", {}).items()):
        print(f"   ({key} = {value})")
    for name, metric in doc["metrics"].items():
        print(f"   {name:32s} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        expected = _expected_metrics(args.trace)
        docs = {w: run_workload(w, args.seed, args.seconds, args.trace)
                for w in workloads}
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for workload, doc in docs.items():
        reported = {k: m["unit"] for k, m in doc["metrics"].items()}
        if reported != expected:
            print(f"perfbench: {workload} reported metrics {reported}, "
                  f"BENCHMARK.json lists {expected}", file=sys.stderr)
            return 1
        _print_table(workload, doc)

    if len(docs) == 1:
        doc = docs[workloads[0]]
        metrics = {name: doc["metrics"][name] for name in expected}
    else:
        metrics = {f"{w}.{name}": d["metrics"][name]
                   for w, d in docs.items() for name in expected}
    print(json.dumps({
        "correct": all(d["correct"] for d in docs.values()),
        "attempted": sum(d["attempted"] for d in docs.values()),
        "failed": sum(d["failed"] for d in docs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
