#!/usr/bin/env python
"""Measure kernel scaling and write ``BENCH_scale.json``.

Runs the constant-density ladder (``repro.api.bench``) and writes the
``bench-scale-v1`` report.  An existing report can be passed as the
*baseline*: its points are embedded verbatim, so the committed file
always shows before/after side by side (the committed baseline was
measured on the pre-vectorization kernel, same machine, back-to-back).

Events/sec counts scheduler events, not simulated work.  Since a frame
ends in one event (the medium's end-of-frame event also finishes the
sender) and the Eq. 1 decay is applied lazily instead of by a timer,
the same seeded run fires about a third fewer events with identical
results.  A report from an older kernel is therefore not comparable:
generate any committed ``BENCH_scale.json``, and any baseline, on this
kernel or later.

Usage::

    PYTHONPATH=src python benchmarks/scale_report.py
        [--sizes 100,300,1000] [--duration 600] [--repeats 3]
        [--baseline OLD.json] [--note TEXT] [--out BENCH_scale.json]
"""

import argparse

from repro.harness.bench import (
    load_scale_report,
    run_scale_suite,
    write_scale_report,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="100,300,1000")
    parser.add_argument("--duration", type=float, default=600.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--baseline", default=None,
                        help="existing bench-scale-v1 report to embed")
    parser.add_argument("--note", default="")
    parser.add_argument("--out", default="BENCH_scale.json")
    args = parser.parse_args()

    sizes = [int(x) for x in args.sizes.split(",") if x]
    baseline = load_scale_report(args.baseline) if args.baseline else None
    points = run_scale_suite(sizes, args.duration, seed=args.seed,
                             repeats=args.repeats)
    for point in points:
        print(f"n={point.n_sensors:>6}  events={point.events_fired:>9}  "
              f"wall={point.wall_clock_s:8.2f}s  "
              f"ev/s={point.events_per_sec:10.0f}")
    write_scale_report(args.out, points, baseline=baseline, note=args.note)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
