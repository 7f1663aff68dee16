"""Adaptive periodic sleeping (Sec. 4.1, Eq. 4-8).

A node sleeps after ``L`` working cycles in which it was neither sender
nor receiver.  The sleep length ``T_i`` adapts to two signals:

* ``rho_i`` (Eq. 4) — the fraction of the last ``S`` cycles with a
  successful transmission; busy nodes sleep less.
* ``alpha_i`` (Eq. 5) — the fraction of the buffer holding important
  (FTD < F) messages; nodes with urgent traffic sleep less.

Eq. 6: ``T_i = max(T_min, T_min * (1/rho_i) * 1/(1 - H + alpha_i))``,
bounded below by the energy break-even ``T_min`` (Eq. 7) and above by
``T_max = T_min * S / (1 - H)`` (Eq. 8).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.analysis.sleep_bounds import max_sleep_period
from repro.core.params import ProtocolParameters


class SleepScheduler:
    """Per-node sleep decision logic.

    Two distinct histories are kept, matching the paper's two uses of
    "transmission":

    * an **attempt streak** — consecutive transmission opportunities
      within the current work period in which the node was neither
      sender nor receiver; reaching ``L`` of these sends the node to
      sleep (Sec. 3.2);
    * a **working-cycle history** — one entry per full sleep+work cycle
      (Sec. 3.2: "each sensor has a working cycle that consists of two
      modes, the sleep mode and the work mode"), recording whether any
      transmission happened during the work period.  Eq. 4's ``rho``
      counts successes over the last ``S`` of these.
    """

    def __init__(self, params: ProtocolParameters, t_min_s: float) -> None:
        if t_min_s <= 0:
            raise ValueError("t_min must be positive")
        self._params = params
        self.t_min_s = t_min_s
        self.t_max_s = max_sleep_period(
            t_min_s, params.success_window_s_cycles, params.buffer_threshold_h
        )
        self._history: Deque[bool] = deque(maxlen=params.success_window_s_cycles)
        self._idle_cycles = 0
        self._wake_transacted = False
        self.sleeps_taken = 0
        self.total_sleep_s = 0.0

    # ------------------------------------------------------------------
    # attempt bookkeeping (within one work period)
    # ------------------------------------------------------------------
    @property
    def idle_cycles(self) -> int:
        """Consecutive attempts without a sender/receiver role."""
        return self._idle_cycles

    def record_attempt(self, transacted: bool) -> None:
        """Record one transmission opportunity of the current work period."""
        if transacted:
            self._idle_cycles = 0
            self._wake_transacted = True
        else:
            self._idle_cycles += 1

    def reset_idle(self) -> None:
        """Start a new work period (on wake-up)."""
        self._idle_cycles = 0
        self._wake_transacted = False

    def should_sleep(self) -> bool:
        """Sec. 3.2/4.1 rule: sleep after L transmission-less attempts."""
        return (
            self._params.sleep_enabled
            and self._idle_cycles >= self._params.idle_cycles_before_sleep_l
        )

    # ------------------------------------------------------------------
    # working-cycle bookkeeping (Eq. 4 history)
    # ------------------------------------------------------------------
    def close_work_period(self) -> None:
        """End the current work period: push its outcome into the Eq. 4
        window.  Call exactly once per sleep decision."""
        self._history.append(self._wake_transacted)
        self._wake_transacted = False

    def record_cycle(self, transmitted: bool) -> None:
        """Directly record one full working cycle's outcome.

        Equivalent to ``record_attempt(transmitted); close_work_period()``
        for callers (and tests) that treat a cycle atomically.
        """
        self._history.append(transmitted)
        if transmitted:
            self._idle_cycles = 0
        else:
            self._idle_cycles += 1

    # ------------------------------------------------------------------
    # Eq. 4-6
    # ------------------------------------------------------------------
    def rho(self) -> float:
        """Eq. (4): recent success rate, floored at ``1/S``."""
        s_window = self._params.success_window_s_cycles
        successes = sum(1 for h in self._history if h)
        if successes == 0:
            return 1.0 / s_window
        return successes / s_window

    def sleep_duration(self, importance_fraction: float) -> float:
        """Eq. (6) with the Eq. 7/8 bounds.

        ``importance_fraction`` is ``alpha_i`` of Eq. (5), supplied by the
        node's queue.  With adaptation disabled (NOOPT) a fixed multiple
        of ``T_min`` is used instead.
        """
        if not 0.0 <= importance_fraction <= 1.0:
            raise ValueError("importance fraction must be in [0, 1]")
        if not self._params.adaptive_sleep:
            return min(
                self.t_max_s, self.t_min_s * self._params.fixed_sleep_multiple
            )
        h = self._params.buffer_threshold_h
        t_i = self.t_min_s / self.rho() / (1.0 - h + importance_fraction)
        duration = max(self.t_min_s, t_i)
        return min(self.t_max_s, duration)

    def note_sleep(self, duration_s: float) -> None:
        """Account a sleep actually taken (metrics)."""
        self.sleeps_taken += 1
        self.total_sleep_s += duration_s
