"""Kernel scaling benchmark: throughput ladder + regression gate (PR 8).

Runs the constant-density size ladder, writes a fresh
``BENCH_scale.json`` next to the repository root, and gates against the
*committed* report: a size point whose events/sec falls more than
``REPRO_BENCH_SCALE_TOLERANCE`` (default 20%) below the committed
measurement fails the suite.  No report is committed yet, so that gate
skips; measure one with ``benchmarks/scale_report.py`` (and regenerate
it the same way when an intentional kernel change moves throughput).

Scale knobs (environment variables):

* ``REPRO_BENCH_SCALE_SIZES`` — comma-separated ladder
  (default ``100,300,1000``).
* ``REPRO_BENCH_SCALE_DURATION`` — simulated seconds (default 600).
* ``REPRO_BENCH_SCALE_REPEATS`` — best-of repeats (default 3).
* ``REPRO_BENCH_SCALE_TOLERANCE`` — allowed fractional regression
  (default 0.20); the gate skips when the committed file is missing
  or was measured with different sizes/duration.
"""

import os
import pathlib

import pytest

from repro.harness.bench import (
    load_scale_report,
    measure_scale,
    run_scale_suite,
    write_scale_report,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_scale.json"


def _sizes():
    raw = os.environ.get("REPRO_BENCH_SCALE_SIZES", "100,300,1000")
    return tuple(int(x) for x in raw.split(",") if x)


def _duration():
    return float(os.environ.get("REPRO_BENCH_SCALE_DURATION", "600"))


def _repeats():
    return int(os.environ.get("REPRO_BENCH_SCALE_REPEATS", "3"))


def _tolerance():
    return float(os.environ.get("REPRO_BENCH_SCALE_TOLERANCE", "0.20"))


@pytest.fixture(scope="module")
def ladder():
    points = run_scale_suite(_sizes(), _duration(), seed=1,
                             repeats=_repeats())
    out = REPO_ROOT / "BENCH_scale.new.json"
    baseline = None
    if REPORT_PATH.exists():
        baseline = load_scale_report(REPORT_PATH).get("baseline")
    write_scale_report(
        out, points, baseline=baseline,
        note="fresh measurement written by benchmarks/test_bench_scale.py")
    return points


def test_throughput_grows_superlinearly_vs_quadratic(ladder):
    """Per-event cost must stay near-flat as n grows.

    The pre-vectorization kernel's per-event cost grew with n (its
    carrier sense scanned every active transmission); the rewritten
    kernel's per-event cost at 10x the nodes must stay within 3x of the
    smallest ladder point, or the scaling regressed catastrophically.
    """
    smallest, largest = ladder[0], ladder[-1]
    assert largest.events_per_sec > smallest.events_per_sec / 3.0


def test_ladder_is_deterministic(ladder):
    """Event and delivery counts are a pure function of the seeded
    config: re-running the smallest point reproduces them exactly."""
    point = ladder[0]
    again = measure_scale(point.n_sensors, point.duration_s, seed=1)
    assert point.events_fired > 0
    assert again.events_fired == point.events_fired
    assert again.messages_delivered == point.messages_delivered


def test_no_regression_vs_committed_report(ladder):
    if not REPORT_PATH.exists():
        pytest.skip("no committed BENCH_scale.json to gate against")
    committed = {
        (row["n_sensors"], row["duration_s"]): row
        for row in load_scale_report(REPORT_PATH)["points"]
    }
    tolerance = _tolerance()
    failures = []
    for point in ladder:
        row = committed.get((point.n_sensors, point.duration_s))
        if row is None:
            continue  # ladder measured at different sizes/duration
        assert point.events_fired == row["events_fired"], (
            f"n={point.n_sensors}: event count changed "
            f"({row['events_fired']} -> {point.events_fired}); seeded "
            "semantics drifted — this is a correctness failure, not a "
            "performance one")
        floor = row["events_per_sec"] * (1.0 - tolerance)
        if point.events_per_sec < floor:
            failures.append(
                f"n={point.n_sensors}: {point.events_per_sec:.0f} ev/s "
                f"< {floor:.0f} (committed {row['events_per_sec']:.0f} "
                f"- {tolerance:.0%})")
    assert not failures, "; ".join(failures)
