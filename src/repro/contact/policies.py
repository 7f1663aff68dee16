"""The contact-level policy interface.

Each policy owns one node's buffer and forwarding decisions.  The
simulator drives pairwise exchanges at contact granularity; policies
decide what to offer a peer, what to accept, and how local state
(delivery-probability estimates, copy FTDs, spray budgets) updates after
a transfer.

This module holds only the shared :class:`ContactPolicy` base and the
scheduler-free :class:`LazyXiEstimator`; each concrete policy lives with
its protocol in :mod:`repro.protocols` (``protocols/fad.py``,
``protocols/zbr.py``, ...).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.message import DataMessage, MessageCopy
from repro.core.queue import FtdQueue


class LazyXiEstimator:
    """Eq. 1 dynamics without a scheduler: decay is applied lazily.

    Between updates, ``floor((now - last_event) / timeout)`` decay steps
    are applied on read — equivalent to the timer-driven estimator when
    events are processed in time order.

    Most reads fall within a timeout of the last event, so :meth:`xi`
    and :meth:`steady_at` first test ``now - last_event < timeout`` and
    skip the step count when it holds.  The test is exact for every
    finite input: it is true exactly when ``_pending_steps`` returns 0.
    For ``x = now - last_event >= 0`` and ``t = timeout > 0``, division
    rounds monotonically and 1 is representable, so ``x < t`` implies
    ``fl(x / t) < 1`` and ``x >= t`` implies ``fl(x / t) >= 1``; a
    negative ``x`` is the ``now < last_event`` branch.  A NaN fails the test and takes the full path,
    which raises as before.  Every read still applies its own pending
    steps: splitting them differently changes the bits, since
    ``(1-a)**k1 * (1-a)**k2 != (1-a)**(k1+k2)`` in floats.
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
        if now - self._last_event < self.timeout_s:
            return self._xi
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
        if now - self._last_event < self.timeout_s:
            return True
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


class ContactPolicy(abc.ABC):
    """One node's buffer + forwarding logic at contact granularity."""

    def __init__(self, node_id: int, capacity: int = 200,
                 drop_threshold: float = 1.0, is_sink: bool = False) -> None:
        self.node_id = node_id
        self.is_sink = is_sink
        self.queue = FtdQueue(capacity, drop_threshold=drop_threshold)
        #: Message ids a sink has already consumed (replication-based
        #: policies use this to stop re-offering delivered messages).
        self.delivered_seen: set = set()
        self.transfers_out = 0
        self.transfers_in = 0

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def metric(self, now: float) -> float:
        """The node's advertised delivery metric (xi / history / 0)."""

    @abc.abstractmethod
    def wants_to_send(self, peer: "ContactPolicy", now: float) -> Optional[MessageCopy]:
        """The next copy to push to ``peer``, or None."""

    @abc.abstractmethod
    def after_transfer(self, copy: MessageCopy, peer: "ContactPolicy",
                       now: float) -> None:
        """Sender-side state update after ``peer`` accepted ``copy``."""

    def steady_at(self, now: float) -> bool:
        """Whether this node's state is frozen for hook calls up to ``now``.

        True promises that ``metric``, ``wants_to_send`` and a refused
        ``accept`` at any time up to ``now`` change nothing but the
        refusal's ``drops_threshold`` count, so the simulator may
        fast-forward a refusal that repeats.  The default opts out.
        """
        return False

    def accept(self, copy: MessageCopy, sender: "ContactPolicy",
               now: float) -> Optional[MessageCopy]:
        """Receiver-side: store (or consume) an incoming copy.

        Returns the stored copy (for delay bookkeeping), or None if the
        copy was refused.  Sinks consume everything.
        """
        incoming = self.incoming_copy(copy, sender, now)
        if self.is_sink:
            self.delivered_seen.add(copy.message_id)
            self.transfers_in += 1
            return incoming
        if self.queue.insert(incoming):
            self.transfers_in += 1
            return incoming
        return None

    def incoming_copy(self, copy: MessageCopy, sender: "ContactPolicy",
                      now: float) -> MessageCopy:
        """The copy as stored at this receiver (FTD assignment hook)."""
        return copy.forwarded(0.0, now)

    def enqueue_new(self, message: DataMessage) -> None:
        """A locally sensed message enters the buffer."""
        self.queue.insert(MessageCopy(message, ftd=0.0, hops=0,
                                      received_at=message.created_at))
