"""Adaptive CTS contention window (Sec. 4.3, Eq. 14).

The RTS advertises a window of ``W`` slots in which qualified receivers
answer.  ``W`` is the smallest value keeping the birthday-problem
collision probability (Eq. 14) under the configured target, given the
sender's estimate of how many neighbors will respond (from its neighbor
table); with adaptation disabled a fixed window is used.

The Eq. 14 search is a pure function of the responder count, the target
and the cap, which take few distinct values in a run, so its results are
memoized rather than re-derived before every RTS.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.analysis.collision import min_contention_window
from repro.core.params import ProtocolParameters


@lru_cache(maxsize=4096)
def _cached_min_contention_window(
    n_responders: int, threshold: float, window_cap: int
) -> int:
    return min_contention_window(n_responders, threshold, window_cap)


class ContentionPolicy:
    """Per-node contention-window policy (adaptive or fixed)."""

    def __init__(self, params: ProtocolParameters) -> None:
        self._params = params
        self.optimizations = 0

    def window_slots(self, expected_responders: int) -> int:
        """The ``W`` to advertise in the next RTS (floored at
        ``cw_min_slots``, see :class:`ProtocolParameters`)."""
        if not self._params.adaptive_cw:
            return max(self._params.cw_min_slots,
                       self._params.contention_window_slots)
        self.optimizations += 1
        n = max(1, expected_responders)
        window = _cached_min_contention_window(
            n, self._params.collision_target, self._params.cw_cap_slots
        )
        return max(self._params.cw_min_slots, window)

    @staticmethod
    def draw_reply_slot(rng: random.Random, window_slots: int) -> int:
        """A receiver's CTS slot, uniform in ``[1, W]`` (Sec. 4.3)."""
        if window_slots < 1:
            raise ValueError("window must be at least one slot")
        return rng.randint(1, window_slots)
