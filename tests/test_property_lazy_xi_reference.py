"""Reference property for the contact level's lazy Eq. 1 decay.

``LazyXiEstimator`` must read and update ``xi`` exactly as the version
below, which derives the pending decay steps on every read, kept
verbatim (only renamed).  Hypothesis draws alpha, a timeout that
accumulates inexactly, a last event up to 1e9 timeouts from the origin,
and a script of ``xi``, ``steady_at`` and ``on_transmission`` calls.  The
calls land before the last event, at exact ``last + k * timeout``
instants, one ULP either side of those, in between, and far beyond.
After every call the return values and the ``(_xi, _last_event)`` state
must be byte-equal.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contact.policies import LazyXiEstimator


class ReferenceLazyXiEstimator:
    """Eq. 1 dynamics without a scheduler: decay is applied lazily.

    Between updates, ``floor((now - last_event) / timeout)`` decay steps
    are applied on read — equivalent to the timer-driven estimator when
    events are processed in time order.
    """

    def __init__(self, alpha: float = 0.3, timeout_s: float = 60.0,
                 initial_xi: float = 0.0) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if not 0.0 <= initial_xi <= 1.0:
            raise ValueError("initial xi must be in [0, 1]")
        self.alpha = alpha
        self.timeout_s = timeout_s
        self._xi = initial_xi
        self._last_event = 0.0

    def xi(self, now: float) -> float:
        """Current estimate, with pending decay applied."""
        self._apply_decay(now)
        return self._xi

    def on_transmission(self, receiver_xi: float, now: float) -> float:
        """Eq. 1 transmission branch (single receiver)."""
        if not 0.0 <= receiver_xi <= 1.0:
            raise ValueError("receiver xi must be in [0, 1]")
        self._apply_decay(now)
        self._xi = (1.0 - self.alpha) * self._xi + self.alpha * receiver_xi
        self._last_event = now
        return self._xi

    def steady_at(self, now: float) -> bool:
        """Whether a read at ``now`` would apply no decay step.

        Monotone: steady at ``now`` means steady at every earlier time.
        """
        return self._pending_steps(now) <= 0

    def _pending_steps(self, now: float) -> int:
        if now < self._last_event:
            # Contact exchanges are processed at contact *end*, so reads
            # within one tick can arrive slightly out of order; skip the
            # (sub-timeout) decay rather than reject them.
            return 0
        return int((now - self._last_event) / self.timeout_s)

    def _apply_decay(self, now: float) -> None:
        steps = self._pending_steps(now)
        if steps > 0:
            self._xi *= (1.0 - self.alpha) ** steps
            self._last_event += steps * self.timeout_s


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _state(est) -> tuple:
    return _bits(est._xi), _bits(est._last_event)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
alphas = st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), unit)
#: Timeouts whose multiples are inexact in binary (0.1, 0.3, 7.3), the
#: policies' 60 s, and arbitrary ones down to a millisecond.
timeouts = st.one_of(st.sampled_from([0.1, 0.3, 7.3, 60.0, 1.1]),
                     st.floats(min_value=1e-3, max_value=1_000.0,
                               allow_nan=False))
#: One call: what to do, how to choose its instant, k, a fraction, a
#: large ratio and the receiver xi of a transmission.
calls = st.tuples(
    st.sampled_from(["xi", "xi", "steady", "steady", "transmit"]),
    st.sampled_from(["before", "grid", "grid", "up", "down", "offset",
                     "same", "far"]),
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    unit,
)


def _instant(how: str, k: int, frac: float, ratio: float, last: float,
             timeout: float) -> float:
    """The instant of the next call, relative to the last event."""
    if how == "before":
        return min(last - frac * timeout * (k + 1),
                   math.nextafter(last, -math.inf))
    grid = last + k * timeout
    if how == "grid":
        return grid
    if how == "up":
        return math.nextafter(grid, math.inf)
    if how == "down":
        return math.nextafter(grid, -math.inf)
    if how == "offset":
        return last + frac * timeout * (k + 1)
    if how == "far":
        return last + ratio * timeout
    return last


@given(alpha=alphas, timeout=timeouts, initial=unit,
       origin_ratio=st.one_of(st.just(0.0),
                              st.floats(min_value=0.0, max_value=1e9,
                                        allow_nan=False)),
       origin_xi=unit,
       script=st.lists(calls, min_size=1, max_size=40))
@settings(max_examples=400, deadline=None)
def test_lazy_xi_matches_reference(alpha, timeout, initial, origin_ratio,
                                   origin_xi, script):
    est = LazyXiEstimator(alpha, timeout, initial_xi=initial)
    ref = ReferenceLazyXiEstimator(alpha, timeout, initial_xi=initial)
    if origin_ratio:
        # Move the last event up to 1e9 timeouts from the origin, where
        # one timeout is a few ULPs of the clock.
        origin = origin_ratio * timeout
        assert _bits(est.on_transmission(origin_xi, origin)) == _bits(
            ref.on_transmission(origin_xi, origin))
        assert _state(est) == _state(ref)
    for kind, how, k, frac, ratio, receiver_xi in script:
        now = _instant(how, k, frac, ratio, ref._last_event, timeout)
        if kind == "xi":
            assert _bits(est.xi(now)) == _bits(ref.xi(now)), (how, now)
        elif kind == "steady":
            assert est.steady_at(now) is ref.steady_at(now), (how, now)
        else:
            assert _bits(est.on_transmission(receiver_xi, now)) == _bits(
                ref.on_transmission(receiver_xi, now)), (how, now)
        assert _state(est) == _state(ref), (kind, how, now)


@pytest.mark.parametrize("now", [math.nan, math.inf])
@pytest.mark.parametrize("call", ["xi", "steady_at"])
def test_non_finite_reads_fail_as_the_reference(call, now):
    est = LazyXiEstimator(0.3, 60.0)
    ref = ReferenceLazyXiEstimator(0.3, 60.0)
    with pytest.raises((ValueError, OverflowError)) as raised:
        getattr(est, call)(now)
    with pytest.raises((ValueError, OverflowError)) as expected:
        getattr(ref, call)(now)
    assert raised.type is expected.type
    assert _state(est) == _state(ref)
