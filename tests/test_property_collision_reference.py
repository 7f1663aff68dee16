"""Reference properties for the per-RTS decision math (Sec. 4.2-4.3).

``grasp_probability`` (Eq. 10-11) stops its tau sum where every further
term is exactly zero, and the MAC memoizes the Eq. 14 window search.
Both must reproduce the straightforward implementations bit for bit, so
seeded runs stay identical.  The references below are those
implementations, kept verbatim (only renamed); every comparison is an
exact ``==``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    cts_collision_probability,
    grasp_probabilities,
    grasp_probability,
    rts_collision_probability,
)
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
