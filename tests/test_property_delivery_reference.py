"""Reference property for the Eq. 1 decay (Sec. 3.1.1).

``DeliveryProbabilityEstimator`` must decay ``xi`` exactly as the
timer-driven estimator did: one ``xi *= 1 - alpha`` per Delta without a
transmission, the next firing ``float(due + Delta)`` after the last, a
transmission or a (re)boot restarting the clock, and ``stop()`` freezing
it.  The reference below is that estimator and the restartable ``Timer``
it ran on, kept verbatim (only renamed), on its own
:class:`EventScheduler`.  Hypothesis draws alpha, a Delta that
accumulates inexactly, and a script of reads, transmissions, boots and
stops, timed at exact due instants, at exact multiples of Delta from
boot and in between; after every operation ``xi`` and the timeout count
must be byte-equal.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Callable, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delivery import DeliveryProbabilityEstimator
from repro.core.params import ProtocolParameters
from repro.des.event import Event
from repro.des.scheduler import EventScheduler


class ReferenceTimer:
    """A restartable one-shot timer.

    ``Timer(sched, cb)`` is idle until :meth:`start` is called; starting an
    already-running timer reschedules it (the earlier firing is cancelled).
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        callback: Callable[[], Any],
    ) -> None:
        self._scheduler = scheduler
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        """``True`` while a firing is pending."""
        return self._event is not None and self._event.active

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute firing time, or ``None`` when idle."""
        if self.running:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """(Re)start the timer to fire ``delay`` seconds from now."""
        self.cancel()
        self._event = self._scheduler.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Cancel a pending firing; no-op when idle."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class ReferenceDeliveryProbabilityEstimator:
    """Maintains one node's ``xi`` with the Eq. 1 update/decay dynamics."""

    def __init__(
        self,
        params: ProtocolParameters,
        scheduler: EventScheduler,
        initial_xi: float = 0.0,
    ) -> None:
        if not 0.0 <= initial_xi <= 1.0:
            raise ValueError("initial xi must be in [0, 1]")
        self._params = params
        self._xi = float(initial_xi)
        self._timer = ReferenceTimer(scheduler, self._on_timeout)
        self.transmissions = 0
        self.timeouts = 0

    @property
    def xi(self) -> float:
        """Current delivery probability, always in [0, 1]."""
        return self._xi

    def start(self) -> None:
        """Arm the decay timer (call once when the node boots)."""
        self._timer.start(self._params.xi_timeout_s)

    def stop(self) -> None:
        """Disarm the decay timer (end of simulation)."""
        self._timer.cancel()

    def on_transmission(self, receiver_xis: Sequence[float]) -> float:
        """Apply the Eq. 1 transmission update after a confirmed transfer.

        ``receiver_xis`` are the delivery probabilities of the receivers
        that acknowledged the message (1.0 entries for sinks).  Restarts
        the decay timer.  Returns the new ``xi``.
        """
        if not receiver_xis:
            raise ValueError("transmission update needs at least one receiver")
        for xi_k in receiver_xis:
            if not 0.0 <= xi_k <= 1.0:
                raise ValueError(f"receiver xi out of range: {xi_k!r}")
        alpha = self._params.alpha
        if self._params.xi_multicast_rule == "best":
            best = max(receiver_xis)
            self._xi = (1.0 - alpha) * self._xi + alpha * best
        else:  # "sequential"
            for xi_k in receiver_xis:
                self._xi = (1.0 - alpha) * self._xi + alpha * xi_k
        self.transmissions += 1
        self._timer.start(self._params.xi_timeout_s)
        return self._xi

    def _on_timeout(self) -> None:
        """Eq. 1 timeout branch: decay and re-arm."""
        self._xi *= 1.0 - self._params.alpha
        self.timeouts += 1
        self._timer.start(self._params.xi_timeout_s)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
#: Decay periods: short ones whose sums are inexact in binary (0.1 + 0.1
#: + 0.1 != 0.3), the paper's 30 s, and arbitrary ones.
deltas = st.one_of(st.sampled_from([0.1, 0.3, 7.3, 30.0, 1.1]),
                   st.floats(min_value=0.01, max_value=50.0,
                             allow_nan=False))
alphas = st.one_of(st.sampled_from([0.1, 0.3, 0.5, 1.0]),
                   st.floats(min_value=1e-3, max_value=1.0,
                             allow_nan=False))
#: One operation: what to do, and how to choose its instant.
operations = st.tuples(
    st.sampled_from(["read", "read", "transmit", "start", "stop"]),
    st.sampled_from(["due", "due", "grid", "offset", "now"]),
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    st.lists(unit, min_size=1, max_size=3),
)


def _instant(how: str, k: int, frac: float, now: float, boot: float,
             delta: float, due: Optional[float]) -> float:
    """The (not earlier than ``now``) instant of the next operation."""
    if how == "due" and due is not None:
        # The reference's next firing, then k firings later, accumulated
        # exactly as the scheduler re-arms the timer.
        t = due
        for _ in range(k):
            t = float(t + delta)
    elif how == "grid":
        # An exact multiple of Delta from the last boot: the instants a
        # "boot + k * Delta" shortcut would get wrong.
        t = boot + (math.ceil((now - boot) / delta) + k) * delta
    elif how == "offset":
        t = now + frac * delta * (k + 1)
    else:
        t = now
    return max(t, now)


@given(alpha=alphas, delta=deltas, initial=unit,
       rule=st.sampled_from(["best", "sequential"]),
       boot_at=st.sampled_from([0.0, 0.0, 0.7, 12.5]),
       script=st.lists(operations, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_decay_matches_timer_reference(alpha, delta, initial, rule, boot_at,
                                       script):
    params = ProtocolParameters(alpha=alpha, xi_timeout_s=delta,
                                xi_multicast_rule=rule)
    sched, ref_sched = EventScheduler(), EventScheduler()
    est = DeliveryProbabilityEstimator(params, sched, initial_xi=initial)
    ref = ReferenceDeliveryProbabilityEstimator(params, ref_sched,
                                                initial_xi=initial)
    # Boot: the node's first start(), as CrossLayerAgent.start does it.
    sched.run_until(boot_at)
    ref_sched.run_until(boot_at)
    est.start()
    ref.start()
    boot = boot_at
    for kind, how, k, frac, xis in script:
        now = sched.now
        t = _instant(how, k, frac, now, boot, delta,
                     ref._timer.expires_at)
        sched.run_until(t)
        ref_sched.run_until(t)
        assert sched.now == ref_sched.now == t
        if kind == "transmit":
            assert _bits(est.on_transmission(xis)) == _bits(
                ref.on_transmission(xis))
        elif kind == "start":  # a reboot
            est.start()
            ref.start()
            boot = t
        elif kind == "stop":
            est.stop()
            ref.stop()
        assert _bits(est.xi) == _bits(ref.xi), (kind, how, t)
        assert est.timeouts == ref.timeouts, (kind, how, t)
        assert est.transmissions == ref.transmissions
