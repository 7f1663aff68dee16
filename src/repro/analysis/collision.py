"""Collision-probability analysis for the asynchronous phase (Sec. 4.2/4.3).

Model (Eq. 9-12): an isolated cell of ``m`` mutually audible nodes; node
``i`` listens for a period drawn uniformly from ``{1, ..., sigma_i}``
slots with ``sigma_i = xi_i * tau_max`` (Eq. 9), and grabs the channel iff
its listen period is strictly the shortest.  ``P_i`` (Eq. 10) is the
probability node ``i`` wins; ``gamma = 1 - sum_i P_i`` (Eq. 12) is the
probability nobody wins cleanly (a preamble collision).

Eq. 14 covers the CTS window: ``n`` qualified receivers each pick one of
``W`` slots uniformly; ``gamma_o`` is the probability that at least two
pick the same slot.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul
from typing import List, Sequence

from repro.checks.tolerance import THRESHOLD_EPS, tolerant_le


def sigma_slots(xi: float, tau_max: int) -> int:
    """Eq. (9): the listen-period upper bound ``sigma_i = xi_i * tau_max``.

    Clamped to at least one slot so that a node with ``xi = 0`` (which
    should win contention most easily) still listens briefly.
    """
    if tau_max < 1:
        raise ValueError("tau_max must be at least one slot")
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must be in [0, 1], got {xi!r}")
    return max(1, min(tau_max, math.ceil(xi * tau_max)))


def grasp_probability(i: int, sigmas: Sequence[int]) -> float:
    """Eq. (10)-(11): probability node ``i`` grabs the channel.

    ``P_i = sum_{tau=1}^{sigma_i} (1/sigma_i) * prod_{j != i}
    theta_ij / sigma_j`` with ``theta_ij = sigma_j - tau`` when
    ``sigma_j > tau`` and 0 otherwise (every other node must draw a
    strictly longer listen period).

    The sum stops at ``tau = min_{j != i} sigma_j - 1``: from there on
    some ``theta_ij`` is 0, so every further term is exactly 0.0 and
    leaves the float total unchanged.
    """
    if not 0 <= i < len(sigmas):
        raise IndexError(f"node index {i} out of range")
    sigma_i = sigmas[i]
    if sigma_i < 1 or any(s < 1 for s in sigmas):
        raise ValueError("all sigmas must be at least 1")
    others = [s for j, s in enumerate(sigmas) if j != i]
    last_tau = min(sigma_i, min(others) - 1) if others else sigma_i
    total = 0.0
    for tau in range(1, last_tau + 1):
        prod = 1.0
        for sigma_j in others:
            prod *= (sigma_j - tau) / sigma_j
        total += prod / sigma_i
    return total


def grasp_probabilities(sigmas: Sequence[int]) -> List[float]:
    """``P_i`` for every node in the cell."""
    return [grasp_probability(i, sigmas) for i in range(len(sigmas))]


def rts_collision_probability(sigmas: Sequence[int]) -> float:
    """Eq. (12): ``gamma = 1 - sum_i P_i``, probability of no clean winner."""
    if not sigmas:
        return 0.0
    gamma = 1.0 - sum(grasp_probabilities(sigmas))
    # Guard against tiny negative values from float round-off.
    return min(1.0, max(0.0, gamma))


def _decision_margin(n_members: int, tau_cap: int) -> float:
    """Half-width of the band in which :func:`_gamma_within` defers.

    With unit round-off ``u = 2**-53``, ``m`` members and at most ``L``
    summed slots (``L <= min sigma <= tau_cap``), every term of both
    sums is a product of non-negative factors, so each evaluation of
    ``sum_i P_i <= 1`` carries a forward error of at most
    ``(3m + L + 2) u``, the tail bound ``P(all draws > tau)`` at most
    ``2m u``, and forming ``need`` and the two sides of ``tolerant_le``
    at most ``6u``: ``(8m + 2L + 12) u`` between the two decisions.  The
    margin is 8192 times that (about 2e-10 at ``m = 12``,
    ``tau_cap = 64``), so a decision taken outside the band is the one
    the float path takes.
    """
    return (8 * n_members + 2 * tau_cap + 12) * 2.0 ** -40


def _gamma_within(sigmas: List[int], threshold: float,
                  margin: float) -> bool:
    """``tolerant_le(rts_collision_probability(sigmas), threshold)``, early.

    The test holds iff ``S = sum_i P_i >= need`` with ``need = 1 -
    threshold - THRESHOLD_EPS``.  ``S`` is summed slot by slot: at slot
    ``tau`` node ``i`` wins with ``(1/sigma_i) prod_{j != i} q_j`` where
    ``q_j = P(draw_j > tau) = (sigma_j - tau) / sigma_j``; prefix and
    suffix products give every ``prod_{j != i}`` in ``O(m)``.  No term
    survives past the smallest sigma.  After slot ``tau`` every later
    term is a clean win with all draws above ``tau``, so the rest of
    ``S`` is at most ``P(all draws > tau) = prod_j q_j``.  The answer is
    certain, and returned, once

    * yes: the partial sum reaches ``need + margin``, or
    * no: the partial sum plus that tail stays below ``need - margin``.

    Inside the ``margin`` band (see :func:`_decision_margin`) the full
    float sum decides, so the result always equals the float test's.
    """
    need = 1.0 - threshold - THRESHOLD_EPS
    partial = 0.0
    for tau in range(1, min(sigmas) + 1):
        q = [(s - tau) / s for s in sigmas]
        prefix = list(accumulate(q, mul, initial=1.0))
        suffix = list(accumulate(reversed(q), mul, initial=1.0))
        # Node k's rivals: prefix[k] (those before it) times the product
        # of the last m - 1 - k factors (those after it).
        partial += sum(before * after / s for before, after, s in
                       zip(prefix, reversed(suffix[:-1]), sigmas))
        if partial >= need + margin:
            return True
        if partial + prefix[-1] < need - margin:
            return False
    return tolerant_le(rts_collision_probability(sigmas), threshold)


# ``gamma`` values that are mathematically equal can differ by ~1e-16
# depending on the sigma vector they were computed from (e.g. [5, 3] and
# [5, 4] both give exactly 1/5); comparing against ``threshold`` exactly
# then classifies equal values inconsistently across tau_max, which
# breaks the agreement between the linear and binary searches.  Both
# searches therefore share the tolerant threshold test
# (:func:`repro.checks.tolerance.tolerant_le`), decided by
# :func:`_gamma_within`.
def min_tau_max(
    xis: Sequence[float],
    threshold: float,
    tau_cap: int = 256,
) -> int:
    """Eq. (13): smallest ``tau_max`` with collision probability <= threshold.

    ``xis`` are the delivery probabilities of all nodes in the cell
    (including the optimizing node itself, per its neighbor table).
    Returns ``tau_cap`` when even the cap cannot reach the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if tau_cap < 1:
        raise ValueError("tau_cap must be positive")
    if len(xis) <= 1:
        return 1  # alone in the cell: no contention at all
    margin = _decision_margin(len(xis), tau_cap)
    for tau_max in range(1, tau_cap + 1):
        sigmas = [sigma_slots(xi, tau_max) for xi in xis]
        if _gamma_within(sigmas, threshold, margin):
            return tau_max
    return tau_cap


def min_tau_max_fast(
    xis: Sequence[float],
    threshold: float,
    tau_cap: int = 256,
) -> int:
    """Binary-search variant of :func:`min_tau_max`.

    ``gamma(tau_max)`` is monotonically decreasing apart from occasional
    one-slot ripples from the ``ceil`` in Eq. 9, so a doubling phase plus
    binary search finds the optimum in ``O(log tau_cap)`` evaluations —
    the online protocol uses this; the exact linear search remains for
    analysis and tests (they agree to within one slot).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if tau_cap < 1:
        raise ValueError("tau_cap must be positive")
    if len(xis) <= 1:
        return 1
    margin = _decision_margin(len(xis), tau_cap)

    def within(tau_max: int) -> bool:
        """Whether the collision probability at this tau_max meets it."""
        return _gamma_within([sigma_slots(xi, tau_max) for xi in xis],
                             threshold, margin)

    if not within(tau_cap):
        return tau_cap
    lo, hi = 1, 1
    while not within(hi):
        lo, hi = hi, min(tau_cap, hi * 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if within(mid):
            hi = mid
        else:
            lo = mid + 1
    # A ceil() ripple can strand the binary search one step inside a
    # satisfying run whose start lies lower; walk back to the run's
    # start (in monotone regions this loop does not execute at all).
    while hi > 1 and within(hi - 1):
        hi -= 1
    return hi


def cts_collision_probability(n_responders: int, window_slots: int) -> float:
    """Eq. (14): probability at least two of ``n`` CTSs share a slot.

    ``gamma_o = 1 - C(W, n) * n! * (1/W)^n`` — the birthday problem over
    ``W`` slots.  With more responders than slots a collision is certain.
    """
    if n_responders < 0 or window_slots < 1:
        raise ValueError("need n >= 0 and W >= 1")
    if n_responders <= 1:
        return 0.0
    if n_responders > window_slots:
        return 1.0
    p_clean = math.perm(window_slots, n_responders) / window_slots ** n_responders
    return 1.0 - p_clean


def min_contention_window(
    n_responders: int,
    threshold: float,
    window_cap: int = 256,
) -> int:
    """Smallest ``W`` with ``gamma_o <= threshold`` (linear search, Sec. 4.3).

    Returns ``window_cap`` when the cap cannot reach the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if window_cap < 1:
        raise ValueError("window_cap must be positive")
    n = max(0, n_responders)
    for window in range(1, window_cap + 1):
        if cts_collision_probability(n, window) <= threshold:
            return window
    return window_cap
