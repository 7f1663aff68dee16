"""Nodal delivery probability ``xi`` (Sec. 3.1.1, Eq. 1).

``xi_i`` estimates how likely sensor ``i`` is to deliver messages to a
sink.  It starts at zero and is updated on two events:

* **Transmission** to node ``k``: ``xi_i = (1 - alpha) * xi_i + alpha * xi_k``
  (with ``xi_k = 1`` when ``k`` is a sink).
* **Timeout**: no transmission for ``Delta`` seconds decays it to
  ``xi_i = (1 - alpha) * xi_i``.

For a multicast to a receiver set ``Phi`` (which Eq. 1 does not cover
explicitly) two documented rules are offered: ``"best"`` applies the
transmission update once using ``max_k xi_k`` (the dominant delivery
path), ``"sequential"`` folds the update over every receiver.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.params import ProtocolParameters
from repro.des.scheduler import EventScheduler


class DeliveryProbabilityEstimator:
    """Maintains one node's ``xi`` with the Eq. 1 update/decay dynamics.

    The timeout decay is applied lazily, with no scheduled event: every
    read (:attr:`xi`, :attr:`timeouts`, :meth:`on_transmission`,
    :meth:`start`, :meth:`stop`) first applies each step due by the
    scheduler's clock, bit for bit as a re-armed timer did: one
    ``xi *= 1 - alpha`` per step, the next due instant
    ``float(due + Delta)``.

    A read at the exact due instant applies that step (``due <= now``),
    as the timer did for every reader scheduled after it was armed (the
    timer won the same-time tie on sequence number).  The invariant
    checker reads at priority ``+1_000_000``, so it is covered.  A
    reader that ran at a due instant *before* the timer would differ:
    one at a negative priority (a ``recover()`` at ``FAULT_PRIORITY``
    reboots through :meth:`start`), or one at priority 0 scheduled
    ``Delta`` or more before the timer was last armed.  Due instants are
    a boot or transfer time plus float sums of ``Delta``; fault instants
    and protocol events are continuous draws or airtime offsets, so no
    seeded run lands on one (the kernel goldens and
    ``tests/test_property_delivery_reference.py`` pin this).
    """

    __slots__ = ("_params", "_scheduler", "_xi", "_due", "transmissions",
                 "_timeouts")

    def __init__(
        self,
        params: ProtocolParameters,
        scheduler: EventScheduler,
        initial_xi: float = 0.0,
    ) -> None:
        if not 0.0 <= initial_xi <= 1.0:
            raise ValueError("initial xi must be in [0, 1]")
        self._params = params
        self._scheduler = scheduler
        self._xi = float(initial_xi)
        #: When the next timeout decay is due; infinite while stopped.
        self._due = math.inf
        self.transmissions = 0
        self._timeouts = 0

    def _catch_up(self) -> float:
        """Apply every timeout step due by now; returns the clock."""
        now = self._scheduler.now
        due = self._due
        if due <= now:
            delta = self._params.xi_timeout_s
            keep = 1.0 - self._params.alpha
            xi = self._xi
            while due <= now:
                xi *= keep
                self._timeouts += 1
                due = float(due + delta)
            self._xi = xi
            self._due = due
        return now

    @property
    def xi(self) -> float:
        """Current delivery probability, always in [0, 1]."""
        if self._due <= self._scheduler.now:
            self._catch_up()
        return self._xi

    @property
    def timeouts(self) -> int:
        """Number of Eq. 1 timeout decays applied so far."""
        self._catch_up()
        return self._timeouts

    def start(self) -> None:
        """Start the decay clock (at boot, and again at each reboot)."""
        now = self._catch_up()
        self._due = float(now + self._params.xi_timeout_s)

    def stop(self) -> None:
        """Stop the decay clock (end of simulation)."""
        self._catch_up()
        self._due = math.inf

    def on_transmission(self, receiver_xis: Sequence[float]) -> float:
        """Apply the Eq. 1 transmission update after a confirmed transfer.

        ``receiver_xis`` are the delivery probabilities of the receivers
        that acknowledged the message (1.0 entries for sinks).  Restarts
        the decay clock.  Returns the new ``xi``.
        """
        if not receiver_xis:
            raise ValueError("transmission update needs at least one receiver")
        for xi_k in receiver_xis:
            if not 0.0 <= xi_k <= 1.0:
                raise ValueError(f"receiver xi out of range: {xi_k!r}")
        now = self._catch_up()
        alpha = self._params.alpha
        if self._params.xi_multicast_rule == "best":
            best = max(receiver_xis)
            self._xi = (1.0 - alpha) * self._xi + alpha * best
        else:  # "sequential"
            for xi_k in receiver_xis:
                self._xi = (1.0 - alpha) * self._xi + alpha * xi_k
        self.transmissions += 1
        self._due = float(now + self._params.xi_timeout_s)
        return self._xi
