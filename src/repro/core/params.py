"""Protocol parameters and the evaluation presets (OPT / NOOPT / NOSLEEP).

Every constant the protocol depends on lives here, with the value the
paper states where it states one and a documented default where it does
not (see DESIGN.md, "Semantics the paper leaves open").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.codec import PlainData


@dataclass(frozen=True)
class ProtocolParameters(PlainData):
    """Tunable constants of the cross-layer protocol.

    Attributes mirror the paper's symbols:

    * ``alpha`` — EWMA constant of the delivery probability (Eq. 1).
    * ``xi_timeout_s`` — the decay interval "Delta" of Eq. 1.
    * ``delivery_threshold_r`` — R, the target total delivery probability
      when selecting receivers (Sec. 3.2.2).
    * ``ftd_drop_threshold`` — messages whose FTD exceeds this are dropped
      even when the queue is not full (Sec. 3.1.2).
    * ``idle_cycles_before_sleep_l`` — L, transmission-less working cycles
      before the node sleeps (Sec. 3.2 / 4.1).
    * ``success_window_s_cycles`` — S, the cycle history window of Eq. 4.
    * ``buffer_threshold_h`` — H, the buffer-importance threshold of Eq. 6.
    * ``important_ftd_f`` — F, the FTD bound defining "important" messages
      in Eq. 5.
    * ``collision_target`` — the threshold used by both the minimum
      ``tau_max`` search (Eq. 13) and the minimum ``W`` search (Eq. 14).
    * ``tau_max_slots`` / ``contention_window_slots`` — the fixed values
      used when the corresponding adaptation is disabled (NOOPT).
    * ``t_min_s`` — Eq. 7 lower bound for sleeping; ``None`` derives it
      from the node's power profile.
    """

    # --- Eq. 1: delivery probability -------------------------------------
    # alpha and the decay interval are calibrated jointly with the FTD
    # thresholds (DESIGN.md): too-aggressive xi growth makes the Eq. 2/3
    # FTDs overconfident (messages dropped before a copy really reaches a
    # sink), too-timid growth under-drops and floods the queues.  The
    # duplicate-transfer rule (receivers already holding a message stay
    # silent) keeps xi tied to *new* redundancy; the conservative
    # alpha/decay below keeps it honest even in always-on regimes, where
    # a fast EWMA (e.g. 0.3/60 s) still over-drops by ~2x.
    alpha: float = 0.1
    xi_timeout_s: float = 30.0
    xi_multicast_rule: str = "best"  # "best" | "sequential"

    # --- FTD / queue ------------------------------------------------------
    delivery_threshold_r: float = 0.9
    ftd_drop_threshold: float = 0.9
    queue_capacity: int = 200

    # --- sleeping (Sec. 4.1) ----------------------------------------------
    sleep_enabled: bool = True
    adaptive_sleep: bool = True
    idle_cycles_before_sleep_l: int = 3
    success_window_s_cycles: int = 10
    buffer_threshold_h: float = 0.5
    important_ftd_f: float = 0.5
    # NOOPT's fixed sleep: without the Eq. 4-6 adaptivity a designer must
    # choose a conservative (short) period or forfeit delivery — that is
    # precisely the energy the optimization buys back.
    fixed_sleep_multiple: float = 2.0  # NOOPT: T_i = fixed_sleep_multiple * T_min
    t_min_s: Optional[float] = None

    # --- listen window (Sec. 4.2) ------------------------------------------
    adaptive_tau: bool = True
    tau_max_slots: int = 16
    tau_cap_slots: int = 64

    # --- contention window (Sec. 4.3) ---------------------------------------
    adaptive_cw: bool = True
    contention_window_slots: int = 8
    cw_cap_slots: int = 32
    # Floor for the advertised window: a 1-slot window can deadlock when
    # the responder estimate is stale (two responders always colliding
    # leave no decodable CTS to correct the estimate with).
    cw_min_slots: int = 2

    # --- shared -------------------------------------------------------------
    collision_target: float = 0.1
    nav_enabled: bool = True
    neighbor_ttl_s: float = 120.0

    # --- low-power listening (preamble sampling; see DESIGN.md) ---------------
    # The paper's preamble "informs neighbors to prepare for receiving the
    # RTS" (Sec. 3.2.1).  For that to reach *sleeping* neighbors — without
    # which the paper's simultaneous claims of ~8x energy saving and
    # NOSLEEP-grade delivery are unreachable — we give the preamble the
    # standard 2006-era low-power-listening semantics (B-MAC): sleeping
    # radios sample the channel briefly every lpl_sample_interval_s, and
    # the preamble lasts slightly longer than that interval so every
    # in-range sleeper detects it and wakes for the RTS.
    lpl_enabled: bool = True
    lpl_sample_interval_s: float = 1.0
    lpl_sample_s: float = 0.005
    preamble_margin_s: float = 0.05
    # Burst mode: right after a confirmed transfer the counterpart nodes
    # are knowably awake, so follow-up attempts within this window use a
    # short preamble (full channel throughput for draining a contact).
    lpl_burst_window_s: float = 4.0
    # A receiver that just accepted data lingers awake this long before
    # resuming its interrupted sleep, so a sender can push several
    # messages across one contact without re-paying the wake-up preamble.
    rx_linger_s: float = 4.0

    # --- protocol-zoo knobs (repro.protocols; see docs/PROTOCOLS.md) ----------
    # Two-hop relay (Altman et al., arXiv:0911.3241): relay copies the
    # source may spray per message before waiting for a sink.
    two_hop_copy_limit: int = 8
    # Meeting-rate forwarding (Shaghaghian & Coates, arXiv:1506.04729):
    # the delivery horizon the MLE sink-meeting rate is mapped through
    # (p = 1 - exp(-rate * horizon)), and the dedup gap below which two
    # sink observations count as one meeting.
    meeting_rate_horizon_s: float = 3000.0
    meeting_rate_min_gap_s: float = 30.0

    # --- MAC pacing (simulation-pragmatic; see DESIGN.md) ---------------------
    # Gap between consecutive working cycles of a node with queued data
    # (the paper repeats the two-phase process without specifying pacing);
    # jittered to break synchronization.
    retry_gap_min_s: float = 0.2
    retry_gap_max_s: float = 2.0
    # Re-evaluation period of a node with an empty queue (pure receiver):
    # it listens continuously and only wakes the CPU to run the sleep rule.
    idle_poll_s: float = 2.0
    # Guard time appended to receive windows (CTS window, ACK window,
    # inter-frame waits) to absorb propagation/processing skew.
    rx_slack_s: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.xi_timeout_s <= 0:
            raise ValueError("xi timeout must be positive")
        if self.xi_multicast_rule not in ("best", "sequential"):
            raise ValueError(f"unknown multicast rule {self.xi_multicast_rule!r}")
        for name in ("delivery_threshold_r", "ftd_drop_threshold",
                     "buffer_threshold_h", "important_ftd_f", "collision_target"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value!r}")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if self.idle_cycles_before_sleep_l < 1:
            raise ValueError("L must be at least 1")
        if self.success_window_s_cycles < 1:
            raise ValueError("S must be at least 1")
        if self.tau_max_slots < 1 or self.tau_cap_slots < 1:
            raise ValueError("listen windows must be at least one slot")
        if self.contention_window_slots < 1 or self.cw_cap_slots < 1:
            raise ValueError("contention windows must be at least one slot")
        if self.fixed_sleep_multiple < 1.0:
            raise ValueError("fixed sleep multiple must be >= 1")
        if self.t_min_s is not None and self.t_min_s <= 0:
            raise ValueError("t_min must be positive when given")
        if not 0 < self.retry_gap_min_s <= self.retry_gap_max_s:
            raise ValueError("retry gap bounds must satisfy 0 < min <= max")
        if self.idle_poll_s <= 0 or self.rx_slack_s < 0:
            raise ValueError("invalid idle poll / rx slack values")
        if self.lpl_sample_interval_s <= 0 or self.lpl_sample_s <= 0:
            raise ValueError("LPL intervals must be positive")
        if self.preamble_margin_s < 0:
            raise ValueError("preamble margin cannot be negative")
        if self.lpl_burst_window_s < 0 or self.rx_linger_s < 0:
            raise ValueError("burst/linger windows cannot be negative")
        if self.two_hop_copy_limit < 0:
            raise ValueError("two-hop copy limit cannot be negative")
        if self.meeting_rate_horizon_s <= 0:
            raise ValueError("meeting-rate horizon must be positive")
        if self.meeting_rate_min_gap_s < 0:
            raise ValueError("meeting-rate dedup gap cannot be negative")

    # ------------------------------------------------------------------
    # presets used in the paper's evaluation (Sec. 5)
    # ------------------------------------------------------------------
    @classmethod
    def opt(cls, **overrides: object) -> "ProtocolParameters":
        """OPT: all optimizations of Sec. 4 enabled."""
        return cls(**overrides)  # type: ignore[arg-type]

    @classmethod
    def noopt(cls, **overrides: object) -> "ProtocolParameters":
        """NOOPT: the basic Sec. 3 protocol with fixed parameters."""
        base = cls(adaptive_sleep=False, adaptive_tau=False, adaptive_cw=False)
        return replace(base, **overrides)  # type: ignore[arg-type]

    @classmethod
    def nosleep(cls, **overrides: object) -> "ProtocolParameters":
        """NOSLEEP: like OPT but nodes never turn their radio off."""
        base = cls(sleep_enabled=False)
        return replace(base, **overrides)  # type: ignore[arg-type]
