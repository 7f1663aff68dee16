"""Reference properties for the per-RTS decision math (Sec. 4.2-4.3).

``grasp_probability`` (Eq. 10-11) stops its tau sum where every further
term is exactly zero, and the MAC memoizes the Eq. 14 window search.
Both must reproduce the straightforward implementations bit for bit, so
seeded runs stay identical.  The Eq. 13 ``tau_max`` searches must return
the same integer as the searches that test every probe through the full
Eq. 10-12 float sum.  The references below are those implementations,
kept verbatim (only renamed); every comparison is an exact ``==``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    cts_collision_probability,
    grasp_probabilities,
    grasp_probability,
    min_tau_max,
    min_tau_max_fast,
    rts_collision_probability,
    sigma_slots,
)
from repro.checks.tolerance import THRESHOLD_EPS, tolerant_le
from repro.core.contention import _cached_min_contention_window
from repro.core.params import ProtocolParameters


def reference_grasp_probability(i, sigmas):
    if not 0 <= i < len(sigmas):
        raise IndexError(f"node index {i} out of range")
    sigma_i = sigmas[i]
    if sigma_i < 1 or any(s < 1 for s in sigmas):
        raise ValueError("all sigmas must be at least 1")
    total = 0.0
    for tau in range(1, sigma_i + 1):
        prod = 1.0
        for j, sigma_j in enumerate(sigmas):
            if j == i:
                continue
            if sigma_j > tau:
                prod *= (sigma_j - tau) / sigma_j
            else:
                prod = 0.0
                break
        total += prod / sigma_i
    return total


def reference_rts_collision_probability(sigmas):
    if not sigmas:
        return 0.0
    gamma = 1.0 - sum(reference_grasp_probability(i, sigmas)
                      for i in range(len(sigmas)))
    return min(1.0, max(0.0, gamma))


def reference_min_contention_window(n_responders, threshold,
                                    window_cap=256):
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if window_cap < 1:
        raise ValueError("window_cap must be positive")
    n = max(0, n_responders)
    for window in range(1, window_cap + 1):
        if cts_collision_probability(n, window) <= threshold:
            return window
    return window_cap


def reference_min_tau_max(xis, threshold, tau_cap=256):
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if tau_cap < 1:
        raise ValueError("tau_cap must be positive")
    if len(xis) <= 1:
        return 1  # alone in the cell: no contention at all
    for tau_max in range(1, tau_cap + 1):
        sigmas = [sigma_slots(xi, tau_max) for xi in xis]
        if tolerant_le(reference_rts_collision_probability(sigmas),
                       threshold):
            return tau_max
    return tau_cap


def reference_min_tau_max_fast(xis, threshold, tau_cap=256):
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if tau_cap < 1:
        raise ValueError("tau_cap must be positive")
    if len(xis) <= 1:
        return 1

    def gamma(tau_max):
        return reference_rts_collision_probability(
            [sigma_slots(xi, tau_max) for xi in xis])

    if not tolerant_le(gamma(tau_cap), threshold):
        return tau_cap
    lo, hi = 1, 1
    while not tolerant_le(gamma(hi), threshold):
        lo, hi = hi, min(tau_cap, hi * 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if tolerant_le(gamma(mid), threshold):
            hi = mid
        else:
            lo = mid + 1
    while hi > 1 and tolerant_le(gamma(hi - 1), threshold):
        hi -= 1
    return hi


# Small values alongside the full range make ties (equal sigmas, where
# the early stop lands on the tie) and sigma_i = 1 common.
sigma_lists = st.lists(
    st.one_of(st.integers(min_value=1, max_value=64),
              st.integers(min_value=1, max_value=4)),
    min_size=1, max_size=12)
sigma_vectors = st.one_of(sigma_lists, sigma_lists.map(tuple))
threshold = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                      exclude_max=True, allow_nan=False)


class TestGraspMatchesReference:
    @given(sigma_vectors)
    @settings(max_examples=400, deadline=None)
    def test_every_p_i_and_gamma_are_bit_identical(self, sigmas):
        for i in range(len(sigmas)):
            assert grasp_probability(i, sigmas) == \
                reference_grasp_probability(i, sigmas)
        assert grasp_probabilities(sigmas) == [
            reference_grasp_probability(i, sigmas)
            for i in range(len(sigmas))]
        assert rts_collision_probability(sigmas) == \
            reference_rts_collision_probability(sigmas)

    @given(sigma_lists)
    @settings(max_examples=100, deadline=None)
    def test_array_input_is_bit_identical(self, sigmas):
        arr = np.array(sigmas)
        for i in range(len(sigmas)):
            assert grasp_probability(i, arr) == \
                reference_grasp_probability(i, sigmas)


class TestContentionWindowMatchesReference:
    @given(st.integers(min_value=0, max_value=64),
           threshold,
           st.integers(min_value=1, max_value=256))
    @settings(max_examples=400, deadline=None)
    def test_memoized_window_equals_the_linear_search(self, n, target, cap):
        expected = reference_min_contention_window(n, target, cap)
        assert _cached_min_contention_window(n, target, cap) == expected
        # The second call is a cache hit and must agree too.
        assert _cached_min_contention_window(n, target, cap) == expected

    def test_default_parameters_every_responder_count(self):
        params = ProtocolParameters()
        for n in range(65):
            assert _cached_min_contention_window(
                n, params.collision_target, params.cw_cap_slots) == \
                reference_min_contention_window(
                    n, params.collision_target, params.cw_cap_slots)


# Raw xi populations, and sorted 0.01-quantized cells of at most 12
# members like the ones the MAC's listen policy searches over.
raw_xis = st.lists(st.floats(min_value=0.0, max_value=1.0),
                   min_size=1, max_size=16)
mac_cells = st.lists(st.integers(min_value=0, max_value=100),
                     min_size=1, max_size=12).map(
    lambda cents: sorted(c / 100 for c in cents))
xi_cells = st.one_of(raw_xis, mac_cells)
caps = st.one_of(st.integers(min_value=1, max_value=64),
                 st.integers(min_value=1, max_value=256))


@st.composite
def boundary_searches(draw):
    """A cell and a threshold on the edge of the tolerant test at one probe.

    The threshold sits within a few ULPs of ``gamma(tau) - THRESHOLD_EPS``,
    so ``gamma(tau) <= threshold + THRESHOLD_EPS`` turns on the last bits
    of the float sum; a search that decides by another arithmetic path
    must fall back to that sum here.
    """
    xis = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                        min_size=2, max_size=12))
    cap = draw(st.integers(min_value=1, max_value=64))
    # The binary search probes the cap first; the linear search reaches
    # any tau whose predecessors all miss the threshold.
    tau = draw(st.one_of(st.just(cap), st.integers(min_value=1,
                                                   max_value=cap)))
    gamma = reference_rts_collision_probability(
        [sigma_slots(xi, tau) for xi in xis])
    edge = gamma - THRESHOLD_EPS
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        edge = np.nextafter(edge, draw(st.sampled_from([0.0, 1.0])))
    assume(0.0 < edge < 1.0)
    return xis, float(edge), cap


class TestTauMaxSearchMatchesReference:
    @given(xi_cells, threshold, caps)
    @settings(max_examples=300, deadline=None)
    def test_linear_search(self, xis, target, cap):
        assert min_tau_max(xis, target, cap) == \
            reference_min_tau_max(xis, target, cap)

    @given(xi_cells, threshold, caps)
    @settings(max_examples=300, deadline=None)
    def test_binary_search(self, xis, target, cap):
        assert min_tau_max_fast(xis, target, cap) == \
            reference_min_tau_max_fast(xis, target, cap)

    @given(boundary_searches())
    @settings(max_examples=300, deadline=None)
    def test_threshold_on_the_tolerance_edge(self, search):
        xis, target, cap = search
        assert min_tau_max(xis, target, cap) == \
            reference_min_tau_max(xis, target, cap)
        assert min_tau_max_fast(xis, target, cap) == \
            reference_min_tau_max_fast(xis, target, cap)

    @pytest.mark.parametrize("xis", [[1.0, 0.6], [1.0, 0.8]])
    @pytest.mark.parametrize("target", [0.2, 0.2 - THRESHOLD_EPS])
    def test_exact_tie_cells(self, xis, target):
        # At tau_max = 5 the sigmas are [5, 3] and [5, 4]; both give
        # gamma = 1/5 exactly on paper, a few ULPs apart in floats.
        for cap in range(1, 257):
            assert min_tau_max(xis, target, cap) == \
                reference_min_tau_max(xis, target, cap)
            assert min_tau_max_fast(xis, target, cap) == \
                reference_min_tau_max_fast(xis, target, cap)
