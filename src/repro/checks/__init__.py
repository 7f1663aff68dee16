"""Correctness tooling for the simulator.

Three coordinated layers (see ``docs/CHECKS.md``):

* the static-analysis engine (``dftmsn lint``) — a per-module lint
  guarding the determinism, float-safety, substream, fault-scheduling,
  telemetry and protocol-registry conventions the reproduction relies
  on (:mod:`repro.checks.engine` runs the :mod:`repro.checks.rules`
  registry over each module);
* :mod:`repro.checks.invariants` — a runtime checker asserting the
  paper's protocol invariants (Eq. 1-3, queue order, buffer bounds,
  clock monotonicity, message-copy conservation) during a run;
* :mod:`repro.checks.tolerance` — the shared round-off-tolerant float
  comparison helpers both layers point offending code at.
"""

from repro.checks.invariants import (
    InvariantChecker,
    InvariantViolation,
    check_queue_invariants,
    invariants_forced,
)
from repro.checks.engine import lint_paths, lint_source
from repro.checks.rules.base import Finding
from repro.checks.tolerance import THRESHOLD_EPS, tolerant_eq, tolerant_le

__all__ = [
    "Finding",
    "InvariantChecker",
    "InvariantViolation",
    "THRESHOLD_EPS",
    "check_queue_invariants",
    "invariants_forced",
    "lint_paths",
    "lint_source",
    "tolerant_eq",
    "tolerant_le",
]
