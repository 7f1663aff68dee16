"""``repro.api.bench`` — scaling benchmarks for the simulation kernel.

Constant-density scale points (:func:`scale_config` keeps the paper's
node density and sink fraction while growing the area), the
:func:`measure_scale` / :func:`run_scale_suite` throughput probes, and
the ``BENCH_scale.json`` report format used by the ``bench-scale`` CI
job; see ``docs/API.md``, section "Scaling".

Every name here is also importable from flat ``repro.api`` (the
compatibility surface); see ``docs/API.md`` for the deprecation policy.
"""

from __future__ import annotations

from repro.harness.bench import (
    PAPER_DENSITY,
    PAPER_SINK_FRACTION,
    ScalePoint,
    load_scale_report,
    measure_scale,
    run_scale_suite,
    scale_config,
    write_scale_report,
)

__all__ = [
    "PAPER_DENSITY",
    "PAPER_SINK_FRACTION",
    "ScalePoint",
    "scale_config",
    "measure_scale",
    "run_scale_suite",
    "write_scale_report",
    "load_scale_report",
]
