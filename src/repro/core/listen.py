"""The xi-skewed carrier-sense listen window (Sec. 4.2, Eq. 9 & 13).

Before initiating a transmission a node listens for a random number of
slots uniform in ``[1, sigma_i]`` with ``sigma_i = xi_i * tau_max``
(Eq. 9): nodes with *low* delivery probability draw short listens and so
tend to win the channel — they are the ones that benefit most from
handing their messages up.  ``tau_max`` itself is chosen (Eq. 13) as the
smallest value keeping the analytic collision probability (Eq. 10-12)
under the configured target, computed from the delivery probabilities in
the node's neighbor table.

The search makes ``O(log tau_cap)`` probes, each deciding whether
Eq. 10-12 meet the target with an early-exit bound on ``sum_i P_i``
(:func:`repro.analysis.collision.min_tau_max_fast`): most probes in a
paper-scale run settle within a few slots, at ``O(m)`` per slot.  The
cell's xi values are rounded to two decimals and the cell is capped at
its strongest contenders — the collision probability saturates well
before the table's capacity anyway.  The search is re-run at most once
per :attr:`ListenPolicy.reoptimize_interval_s` and keeps no state
between calls.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.analysis.collision import min_tau_max_fast, sigma_slots
from repro.core.params import ProtocolParameters

#: xi values are rounded to this many decimals before the search; a 0.01
#: perturbation moves the Eq. 13 optimum by at most one slot.
_XI_QUANTUM_DECIMALS = 2

#: Only the ``m`` lowest-sigma (most contention-prone) cell members are
#: fed to the search; extra high-xi members barely change the optimum.
_MAX_CELL = 12


class ListenPolicy:
    """Per-node listen-window policy (adaptive or fixed)."""

    #: Minimum spacing between re-optimizations (simulated seconds); the
    #: neighbor population cannot change faster than mobility does.
    reoptimize_interval_s: float = 5.0

    def __init__(self, params: ProtocolParameters) -> None:
        self._params = params
        self.tau_max = params.tau_max_slots
        self.optimizations = 0
        self._last_optimized_at = float("-inf")

    def update_tau_max(
        self,
        own_xi: float,
        neighbor_xis: Iterable[float],
        now: float = 0.0,
    ) -> int:
        """Re-run the Eq. 13 search against the current cell population.

        No-op (returns the fixed value) when adaptation is disabled, and
        rate-limited to once per :attr:`reoptimize_interval_s`;
        ``neighbor_xis`` is only iterated when the search runs.
        """
        if not self._params.adaptive_tau:
            return self.tau_max
        if now - self._last_optimized_at < self.reoptimize_interval_s:
            return self.tau_max
        self._last_optimized_at = now
        cell = sorted(
            round(xi, _XI_QUANTUM_DECIMALS) for xi in (own_xi, *neighbor_xis)
        )[:_MAX_CELL]
        self.tau_max = min_tau_max_fast(
            cell, self._params.collision_target, self._params.tau_cap_slots,
        )
        self.optimizations += 1
        return self.tau_max

    def sigma(self, xi: float) -> int:
        """Eq. (9): this node's listen-period upper bound in slots."""
        return sigma_slots(xi, self.tau_max)

    def draw_listen_slots(self, rng: random.Random, xi: float) -> int:
        """A listen period uniform in ``[1, sigma_i]`` slots."""
        return rng.randint(1, self.sigma(xi))
