"""The two-phase cross-layer MAC engine and the DFT-MSN protocol agent.

:class:`MacAgent` implements the working-cycle machinery of Sec. 3.2 —
the contention-based *asynchronous phase* (carrier sense, preamble, RTS,
CTS collection) and the *synchronous phase* (SCHEDULE, DATA multicast,
slotted ACKs) — plus periodic sleeping, NAV and the neighbor table.  The
forwarding *policy* is factored into overridable hooks so that the
fault-tolerance-based protocol (:class:`CrossLayerAgent`) and the
baselines (ZBR, direct, epidemic, ... in :mod:`repro.protocols`) share one
verified MAC.

Timeline of one successful cycle (Fig. 1 of the paper)::

    sender    |--listen tau--|PRE|RTS|.... W cts slots ....|SCH|DATA|... acks ...|
    receiver                          |CTS@k|                        |ACK@slot|
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.contention import ContentionPolicy
from repro.core.delivery import DeliveryProbabilityEstimator
from repro.core.ftd import receiver_copy_ftd, sender_ftd_after_multicast
from repro.core.listen import ListenPolicy
from repro.core.message import DataMessage, MessageCopy
from repro.core.neighbor_table import NeighborTable, expected_responders
from repro.core.params import ProtocolParameters
from repro.core.queue import FtdQueue
from repro.core.selection import Candidate, select_receivers
from repro.core.sleep import SleepScheduler
from repro.des.event import Event
from repro.des.scheduler import EventScheduler
from repro.metrics.collector import MetricsCollector
from repro.obs.bus import TelemetryBus
from repro.obs.events import PhaseEnter, PhaseExit
from repro.radio.frames import Ack, Cts, DataFrame, Frame, FrameKind, Preamble, Rts, Schedule
from repro.radio.states import RadioState
from repro.radio.transceiver import Transceiver


class AgentState(enum.Enum):
    """Protocol-agent state machine."""

    IDLE = "idle"                       # awake, pure listener
    LISTEN = "listen"                   # carrier-sensing before own attempt
    AWAIT_CTS = "await_cts"             # RTS sent, collecting CTS replies
    SYNC_TX = "sync_tx"                 # sending SCHEDULE / DATA
    AWAIT_ACKS = "await_acks"           # waiting for slotted ACKs
    RX_WAIT_RTS = "rx_wait_rts"         # preamble heard, expecting RTS
    RX_WAIT_SCHEDULE = "rx_wait_sched"  # CTS sent, expecting SCHEDULE
    RX_WAIT_DATA = "rx_wait_data"       # scheduled, expecting DATA
    SLEEP = "sleep"


@dataclass
class AgentStats:
    """Per-node protocol counters."""

    cycles: int = 0
    tx_attempts: int = 0
    failed_attempts: int = 0
    busy_give_ups: int = 0
    preambles_sent: int = 0
    rts_sent: int = 0
    cts_sent: int = 0
    cts_received: int = 0
    schedules_sent: int = 0
    data_sent: int = 0
    data_received: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    multicasts_confirmed: int = 0
    copies_confirmed: int = 0
    sink_deliveries_direct: int = 0
    rx_timeouts: int = 0
    messages_generated: int = 0


class MacAgent:
    """Base agent: owns the two-phase MAC; subclasses own the policy."""

    #: Subclasses flip this for sink behaviour checks in shared code.
    is_sink: bool = False

    def __init__(
        self,
        node_id: int,
        radio: Transceiver,
        scheduler: EventScheduler,
        params: ProtocolParameters,
        rng: random.Random,
        queue: FtdQueue,
        collector: Optional[MetricsCollector] = None,
    ) -> None:
        self.node_id = node_id
        self.radio = radio
        self.scheduler = scheduler
        self.params = params
        self.rng = rng
        self.queue = queue
        self.collector = collector
        self.timing = radio.medium.timing

        self.state = AgentState.IDLE
        self.failed = False
        self.failed_permanently = False
        self.stats = AgentStats()
        self.neighbor_table = NeighborTable(params.neighbor_ttl_s)
        self.listen_policy = ListenPolicy(params)
        self.contention_policy = ContentionPolicy(params)
        t_min = params.t_min_s
        if t_min is None:
            t_min = radio.meter.profile.min_sleep_period_s()
        self.sleep_scheduler = SleepScheduler(params, t_min)

        self._pending: Optional[Event] = None
        self._nav_until: float = 0.0
        self._heard_traffic = False
        # sender-side transaction context
        self._head: Optional[MessageCopy] = None
        self._candidates: List[Candidate] = []
        self._phi: List[Candidate] = []
        self._assignments: Dict[int, float] = {}
        self._acked: Set[int] = set()
        self._rts_window = 1
        # Collision feedback for the Eq. 14 responder estimate: a CTS
        # window that ends with corrupted frames and no decodable CTS
        # means >= 2 responders collided, so the next estimate doubles.
        self._responder_hint = 0
        self._cts_window_collisions = 0
        # receiver-side transaction context
        self._rx_sender: Optional[int] = None
        self._rx_slot = 0
        self._rx_assigned_ftd = 0.0

        radio.on_frame = self.on_frame
        radio.on_collision = self._on_corrupted_frame
        if params.lpl_enabled and params.sleep_enabled and not self.is_sink:
            radio.lpl_sample_interval_s = params.lpl_sample_interval_s
            radio.lpl_sample_s = params.lpl_sample_s
            radio.on_lpl_wake = self._on_lpl_wake
        self._sleep_wake_event: Optional[Event] = None
        # Set while handling a preamble that interrupted a sleep: if the
        # episode yields no transfer, the node resumes the remainder of
        # its sleep instead of starting a fresh work period; after a
        # transfer it lingers awake briefly (burst draining) first.
        self._lpl_resume_until: Optional[float] = None
        # Timestamp of the last confirmed multicast (burst-mode preamble).
        self._last_success_at = float("-inf")
        # While lingering after an LPL reception, stay awake until this
        # deadline even if intermediate exchanges come to nothing.
        self._linger_deadline = float("-inf")
        # Telemetry: the currently open protocol-phase span, if any.
        self._bus: Optional[TelemetryBus] = None
        self._obs_phase: Optional[str] = None
        self._obs_phase_t0 = 0.0

    # ==================================================================
    # telemetry
    # ==================================================================
    def bind_telemetry(self, bus: TelemetryBus) -> None:
        """Emit phase spans (and bind queue/meter) on ``bus`` from now on.

        Phases are sender-side: ``async`` covers carrier sense through
        the CTS window, ``sync`` the SCHEDULE→DATA→ACK round.  Sleep
        spans come from the energy meter's wake events.
        """
        self._bus = bus
        self.queue.bind_telemetry(bus, self.node_id,
                                  lambda: self.scheduler.now)
        self.radio.meter.bind_telemetry(bus, self.node_id)

    def _phase_begin(self, phase: str) -> None:
        bus = self._bus
        if bus is None:
            return
        now = self.scheduler.now
        self._obs_phase = phase
        self._obs_phase_t0 = now
        bus.emit(PhaseEnter(time=now, node=self.node_id, phase=phase))

    def _phase_end(self, outcome: str) -> None:
        bus = self._bus
        phase = self._obs_phase
        if bus is None or phase is None:
            return
        now = self.scheduler.now
        self._obs_phase = None
        bus.emit(PhaseExit(time=now, node=self.node_id, phase=phase,
                           duration_s=now - self._obs_phase_t0,
                           outcome=outcome))

    # ==================================================================
    # policy hooks (overridden by protocol variants)
    # ==================================================================
    def advertised_metric(self) -> float:
        """The ``xi`` value carried in this node's RTS/CTS frames."""
        raise NotImplementedError

    def evaluate_rts(self, rts: Rts) -> Tuple[bool, int]:
        """(qualified?, buffer slots to advertise) for an incoming RTS."""
        raise NotImplementedError

    def build_phi(self, head: MessageCopy,
                  candidates: Sequence[Candidate]) -> List[Candidate]:
        """Pick the receiver set from the collected CTS responders."""
        raise NotImplementedError

    def copy_assignments(self, head: MessageCopy,
                         phi: Sequence[Candidate]) -> Dict[int, float]:
        """Per-receiver FTD to announce in the SCHEDULE (Eq. 2)."""
        raise NotImplementedError

    def on_data_accepted(self, frame: DataFrame, assigned_ftd: float) -> None:
        """Store (or deliver) an accepted DATA frame."""
        raise NotImplementedError

    def after_multicast(self, head: MessageCopy,
                        confirmed: Sequence[Candidate]) -> None:
        """Update local state after the ACK window (Eq. 1 / Eq. 3 etc.)."""
        raise NotImplementedError

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> None:
        """Boot the agent with a random phase offset."""
        offset = self.rng.uniform(0.0, self.params.retry_gap_max_s)
        self.scheduler.schedule(offset, self._start_cycle)

    def enqueue_message(self, message: DataMessage) -> None:
        """Application hook: a freshly sensed message enters the queue."""
        self.stats.messages_generated += 1
        self.queue.insert(MessageCopy(message, ftd=0.0, hops=0,
                                      received_at=message.created_at))

    def finalize(self) -> None:
        """Flush accounting at the end of a run."""
        self.radio.finalize()

    def fail(self, permanent: bool = True) -> None:
        """Kill this node (fault injection).

        The radio goes dark (no LPL sampling either), pending protocol
        events are cancelled, and buffered message copies are lost —
        the failure mode the FTD redundancy is designed to tolerate.
        With ``permanent=False`` the outage is recoverable: a later
        :meth:`recover` reboots the node (transient fault models).
        """
        if self.failed:
            self.failed_permanently = self.failed_permanently or permanent
            return
        self.failed = True
        self.failed_permanently = permanent
        self._phase_end("interrupted")
        self._cancel_pending()
        if self._sleep_wake_event is not None:
            self._sleep_wake_event.cancel()
            self._sleep_wake_event = None
        self.state = AgentState.SLEEP
        self.radio.lpl_sample_interval_s = None
        if self.radio.state.awake:
            if self.radio.state is not RadioState.TRANSMITTING:
                self.radio.sleep()
            else:
                # Mid-frame death: the radio drops off right after.
                self.scheduler.schedule(self.timing.data_airtime_s,
                                        self._fail_radio_off)
        else:
            self.radio.sleep()

    def _fail_radio_off(self) -> None:
        if not self.failed:
            return  # recovered before the deferred radio-off fired
        if self.radio.state is not RadioState.TRANSMITTING:
            if self.radio.state.awake:
                self.radio.sleep()
        else:  # pragma: no cover - extremely long back-to-back frames
            self.scheduler.schedule(self.timing.data_airtime_s,
                                    self._fail_radio_off)

    def recover(self, purge_buffer: bool = False) -> bool:
        """Reboot a transiently failed node (inverse of non-permanent
        :meth:`fail`); returns whether a reboot actually happened.

        Permanently dead nodes never come back.  With ``purge_buffer``
        the reboot models volatile message memory: every buffered copy
        is dropped (``queue.drop`` cause ``"purge"``).  The agent
        restarts exactly like a booting node: LPL sampling restored,
        radio awake, working cycle re-entered after the usual random
        phase offset (one RNG draw from this node's MAC stream).
        """
        if not self.failed or self.failed_permanently:
            return False
        self.failed = False
        if purge_buffer:
            self.queue.purge()
        if (self.params.lpl_enabled and self.params.sleep_enabled
                and not self.is_sink):
            self.radio.lpl_sample_interval_s = self.params.lpl_sample_interval_s
        self.radio.wake()
        self.state = AgentState.IDLE
        self.sleep_scheduler.reset_idle()
        self.start()
        return True

    # ==================================================================
    # working cycle
    # ==================================================================
    def _set_pending(self, delay: float, callback: Callable[..., Any],
                     *args: Any) -> None:
        if self._pending is not None:
            self._pending.cancel()
        self._pending = self.scheduler.schedule(delay, callback, *args)

    def _cancel_pending(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _start_cycle(self) -> None:
        """Begin a working cycle: carrier-sense, then send or serve."""
        if self.failed or self.state is AgentState.SLEEP:
            return  # dead, or woken explicitly via _wake
        self.stats.cycles += 1
        self._heard_traffic = False
        now = self.scheduler.now

        if self.queue.peek() is None:
            # Pure receiver: listen continuously, re-run the sleep rule
            # every idle_poll seconds.
            self.state = AgentState.IDLE
            self._set_pending(self.params.idle_poll_s, self._idle_poll_done)
            return

        if self.params.nav_enabled and now < self._nav_until:
            # Defer the attempt until the overheard exchange finishes.
            self.state = AgentState.IDLE
            self._set_pending(self._nav_until - now + self._jitter(),
                              self._start_cycle)
            return

        self.state = AgentState.LISTEN
        self._phase_begin("async")
        slots = self.listen_policy.draw_listen_slots(
            self.rng, self.advertised_metric()
        )
        self._set_pending(slots * self.timing.listen_slot_s, self._listen_done)

    def _jitter(self) -> float:
        return self.rng.uniform(self.params.retry_gap_min_s,
                                self.params.retry_gap_max_s)

    def _idle_poll_done(self) -> None:
        if self.state is not AgentState.IDLE:
            return
        self._end_cycle(transacted=False)

    def _listen_done(self) -> None:
        if self.state is not AgentState.LISTEN:
            return
        if self._heard_traffic or self.radio.channel_busy():
            # Someone else holds the channel: back off.  This is not a
            # missed transmission opportunity (we may be about to serve
            # as a receiver), so it does not feed the Sec. 4.1 idle count.
            self.stats.busy_give_ups += 1
            self._phase_end("busy")
            self._end_cycle(transacted=False, countable=False)
            return
        head = self.queue.peek()
        if head is None:
            self._end_cycle(transacted=False)
            return
        # Channel clear: grab it with a preamble.  With LPL the preamble
        # is stretched past the sleepers' sampling interval so every
        # in-range radio — awake or asleep — catches the RTS behind it.
        self.stats.tx_attempts += 1
        self.stats.preambles_sent += 1
        self._head = head
        self.radio.transmit(Preamble(self.node_id,
                                     duration_bits=self._preamble_bits()),
                            on_done=self._preamble_sent)

    def _preamble_bits(self) -> int:
        if not (self.params.lpl_enabled and self.params.sleep_enabled):
            # In an always-on network (NOSLEEP) nobody samples, so the
            # preamble stays an ordinary control frame.
            return 0
        if (self.scheduler.now - self._last_success_at
                < self.params.lpl_burst_window_s):
            # Burst mode: the nodes we just exchanged with are lingering
            # awake, so skip the wake-up stretch and keep the channel
            # free for data.
            return 0
        span = self.params.lpl_sample_interval_s + self.params.preamble_margin_s
        return int(self.timing.bandwidth_bps * span)

    def _preamble_sent(self) -> None:
        head = self._head
        if head is None or self.state is not AgentState.LISTEN:
            return
        now = self.scheduler.now
        own_xi = self.advertised_metric()
        live = self.neighbor_table.entries(now)
        self._rts_window = self.contention_policy.window_slots(
            max(expected_responders(live, own_xi), self._responder_hint)
        )
        # A generator: the rate-limited search usually never reads it.
        self.listen_policy.update_tau_max(own_xi, (e.xi for e in live), now)
        rts = Rts(self.node_id, xi=own_xi, ftd=head.ftd,
                  window_slots=self._rts_window,
                  message_id=head.message_id)
        self.stats.rts_sent += 1
        self.radio.transmit(rts, on_done=self._rts_sent)

    def _rts_sent(self) -> None:
        if self.state is not AgentState.LISTEN:
            return
        self.state = AgentState.AWAIT_CTS
        self._candidates = []
        self._cts_window_collisions = 0
        window = self._rts_window * self.timing.cts_slot_s
        self._set_pending(window + self.params.rx_slack_s, self._cts_window_done)

    def _cts_window_done(self) -> None:
        if self.state is not AgentState.AWAIT_CTS:
            return
        head = self._head
        if head is None:
            self._fail_attempt()
            return
        if not self._candidates:
            if self._cts_window_collisions > 0:
                # Responders collided wall-to-wall: widen the next window.
                self._responder_hint = min(8, max(2, self._responder_hint * 2))
            self._fail_attempt()
            return
        self._responder_hint = 0
        phi = self.build_phi(head, self._candidates)
        if not phi:
            self._fail_attempt()
            return
        self._phi = phi
        self._assignments = self.copy_assignments(head, phi)
        order = tuple(c.node_id for c in phi)
        schedule = Schedule(self.node_id, receiver_order=order,
                            assignments=dict(self._assignments),
                            message_id=head.message_id)
        self.state = AgentState.SYNC_TX
        self._phase_end("advance")
        self._phase_begin("sync")
        self.stats.schedules_sent += 1
        self.radio.transmit(schedule, on_done=self._schedule_sent)

    def _fail_attempt(self) -> None:
        self.stats.failed_attempts += 1
        self._phase_end("failed")
        self._end_cycle(transacted=False)

    def _schedule_sent(self) -> None:
        if self.state is not AgentState.SYNC_TX or self._head is None:
            return
        head = self._head
        frame = DataFrame(self.node_id, payload=head,
                          message_id=head.message_id,
                          payload_bits=head.message.size_bits)
        self.stats.data_sent += 1
        self.radio.transmit(frame, on_done=self._data_sent)

    def _data_sent(self) -> None:
        if self.state is not AgentState.SYNC_TX:
            return
        self.state = AgentState.AWAIT_ACKS
        self._acked = set()
        window = len(self._phi) * self.timing.t_ack_s
        self._set_pending(window + self.params.rx_slack_s, self._ack_window_done)

    def _ack_window_done(self) -> None:
        if self.state is not AgentState.AWAIT_ACKS or self._head is None:
            return
        confirmed = [c for c in self._phi if c.node_id in self._acked]
        self.after_multicast(self._head, confirmed)
        if confirmed:
            self._last_success_at = self.scheduler.now
            self.stats.multicasts_confirmed += 1
            self.stats.copies_confirmed += len(confirmed)
            if any(c.is_sink for c in confirmed):
                self.stats.sink_deliveries_direct += 1
        else:
            self.stats.failed_attempts += 1
        self._phase_end("confirmed" if confirmed else "no_acks")
        self._end_cycle(transacted=bool(confirmed))

    def _end_cycle(self, transacted: bool, countable: bool = True) -> None:
        """Close a cycle, run the Sec. 4.1 sleep rule, start the next."""
        # A span still open here means the attempt was abandoned mid-phase
        # (preamble overheard, rx timeout, head vanished, ...).
        self._phase_end("interrupted")
        self._cancel_pending()
        self._head = None
        self._phi = []
        self._assignments = {}
        self._rx_sender = None
        self.state = AgentState.IDLE

        # A sleep interrupted by someone else's preamble resumes where it
        # left off.  Waking fully on every overheard exchange would
        # forfeit the sleep savings, and forwarding a just-received
        # message immediately would spawn new preambles per reception: a
        # chain reaction that drives the whole network awake.  Store-
        # carry-forward: the node forwards at its own next work period.
        # A reception still counts as serving as a receiver (Sec. 4.1),
        # and the receiver *lingers* awake briefly so the sender can push
        # more messages across the contact without further preambles.
        resume_at = self._lpl_resume_until
        if resume_at is not None:
            now = self.scheduler.now
            if resume_at - now <= self.params.rx_slack_s:
                self._lpl_resume_until = None  # sleep basically over
            else:
                if transacted:
                    self.sleep_scheduler.record_attempt(True)
                    # Extend the linger: the sender may push more data.
                    self._linger_deadline = now + self.params.rx_linger_s
                if now < self._linger_deadline:
                    self.state = AgentState.IDLE
                    self._set_pending(self._linger_deadline - now,
                                      self._lpl_linger_expired)
                    return
                self._lpl_resume_until = None
                self.state = AgentState.SLEEP
                self.radio.sleep(lpl_resume=True)
                self._sleep_wake_event = self.scheduler.schedule(
                    resume_at - now, self._wake)
                return

        if countable or transacted:
            self.sleep_scheduler.record_attempt(transacted)

        if self.sleep_scheduler.should_sleep():
            self.sleep_scheduler.close_work_period()
            importance = self.queue.importance_fraction(
                self.params.important_ftd_f
            )
            duration = self.sleep_scheduler.sleep_duration(importance)
            self.sleep_scheduler.note_sleep(duration)
            self.state = AgentState.SLEEP
            self.radio.sleep()
            self._sleep_wake_event = self.scheduler.schedule(duration,
                                                             self._wake)
            return

        self._set_pending(self._jitter(), self._start_cycle)

    def _wake(self) -> None:
        if self.failed or self.state is not AgentState.SLEEP:
            return
        self._sleep_wake_event = None
        self._lpl_resume_until = None
        self.radio.wake()
        self.state = AgentState.IDLE
        self.sleep_scheduler.reset_idle()
        self._start_cycle()

    def _lpl_linger_expired(self) -> None:
        """The post-reception linger ended with no further traffic:
        resume the interrupted sleep."""
        if self.failed or self.state is not AgentState.IDLE:
            return
        resume_at = self._lpl_resume_until
        self._lpl_resume_until = None
        now = self.scheduler.now
        if resume_at is None or resume_at - now <= self.params.rx_slack_s:
            self._set_pending(self._jitter(), self._start_cycle)
            return
        self.state = AgentState.SLEEP
        self.radio.sleep(lpl_resume=True)
        self._sleep_wake_event = self.scheduler.schedule(resume_at - now,
                                                         self._wake)

    def _on_lpl_wake(self) -> None:
        """A channel sample caught a preamble: wake up for the RTS.

        The radio is already awake (the transceiver woke it); abandon the
        scheduled end-of-sleep wake and become a receiver.  Whatever
        happens next ends in :meth:`_end_cycle`, which re-runs the sleep
        rule — an LPL wake that yields a transfer resets the idle streak,
        one that does not sends the node back to sleep quickly.
        """
        if self.failed or self.state is not AgentState.SLEEP:
            return
        if self._sleep_wake_event is not None:
            self._lpl_resume_until = self._sleep_wake_event.time
            self._sleep_wake_event.cancel()
            self._sleep_wake_event = None
        self.sleep_scheduler.reset_idle()
        self.state = AgentState.RX_WAIT_RTS
        wait = (self.params.lpl_sample_interval_s
                + self.params.preamble_margin_s
                + self.timing.control_airtime_s * 2
                + self.params.rx_slack_s * 8)
        self._set_pending(wait, self._rx_timeout)

    # ==================================================================
    # frame reception
    # ==================================================================
    def on_frame(self, frame: Frame) -> None:
        """Dispatch a decoded frame to the matching handler."""
        if self.failed:
            return
        kind = frame.kind
        if kind is FrameKind.PREAMBLE:
            self._on_preamble(frame)
        elif kind is FrameKind.RTS:
            assert isinstance(frame, Rts)
            self._on_rts(frame)
        elif kind is FrameKind.CTS:
            assert isinstance(frame, Cts)
            self._on_cts(frame)
        elif kind is FrameKind.SCHEDULE:
            assert isinstance(frame, Schedule)
            self._on_schedule(frame)
        elif kind is FrameKind.DATA:
            assert isinstance(frame, DataFrame)
            self._on_data(frame)
        elif kind is FrameKind.ACK:
            assert isinstance(frame, Ack)
            self._on_ack(frame)

    def _on_preamble(self, frame: Frame) -> None:
        self._heard_traffic = True
        if self.state in (AgentState.IDLE, AgentState.LISTEN,
                          AgentState.RX_WAIT_RTS):
            # Give up any own attempt and prepare to receive the RTS.
            self.state = AgentState.RX_WAIT_RTS
            wait = (self.timing.control_airtime_s * 2
                    + self.params.rx_slack_s * 4)
            self._set_pending(wait, self._rx_timeout)

    def _on_rts(self, rts: Rts) -> None:
        self._heard_traffic = True
        self.neighbor_table.observe(rts.src, rts.xi, self.scheduler.now)
        if self.state not in (AgentState.IDLE, AgentState.LISTEN,
                              AgentState.RX_WAIT_RTS):
            return
        qualified, buffer_slots = self.evaluate_rts(rts)
        if not qualified:
            # Fig. 1(d): unqualified neighbors stay silent; NAV covers the
            # upcoming exchange (window + schedule + data + a few ACKs).
            # The node served neither as sender nor receiver, so this
            # counts toward the Sec. 4.1 idle streak.
            self._update_nav(rts.window_slots * self.timing.cts_slot_s
                             + self.timing.data_airtime_s
                             + self.timing.control_airtime_s * 4)
            self._end_cycle(transacted=False)
            return
        self.state = AgentState.RX_WAIT_SCHEDULE
        self._rx_sender = rts.src
        slot = ContentionPolicy.draw_reply_slot(self.rng, rts.window_slots)
        cts = Cts(self.node_id, dst=rts.src, xi=self.advertised_metric(),
                  buffer_slots=buffer_slots, is_sink=self.is_sink)
        self.scheduler.schedule((slot - 1) * self.timing.cts_slot_s,
                                self._send_cts, cts)
        # Expect the SCHEDULE shortly after the contention window closes.
        wait = (rts.window_slots * self.timing.cts_slot_s
                + self.timing.control_airtime_s * 2
                + self.params.rx_slack_s * 8)
        self._set_pending(wait, self._rx_timeout)

    def _send_cts(self, cts: Cts) -> None:
        if self.state is not AgentState.RX_WAIT_SCHEDULE:
            return
        if self.radio.can_receive:
            self.stats.cts_sent += 1
            self.radio.transmit(cts)

    def _on_cts(self, cts: Cts) -> None:
        self._heard_traffic = True
        self.neighbor_table.observe(cts.src, cts.xi, self.scheduler.now,
                                    buffer_slots=cts.buffer_slots,
                                    is_sink=cts.is_sink)
        if self.state is AgentState.AWAIT_CTS and cts.dst == self.node_id:
            self.stats.cts_received += 1
            self._candidates.append(
                Candidate(cts.src, cts.xi, cts.buffer_slots, cts.is_sink)
            )

    def _on_schedule(self, schedule: Schedule) -> None:
        self._heard_traffic = True
        if (self.state is AgentState.RX_WAIT_SCHEDULE
                and schedule.src == self._rx_sender):
            if self.node_id in schedule.assignments:
                self.state = AgentState.RX_WAIT_DATA
                self._rx_slot = schedule.ack_slot_of(self.node_id)
                self._rx_assigned_ftd = schedule.assignments[self.node_id]
                wait = (self.timing.data_airtime_s
                        + self.timing.control_airtime_s
                        + self.params.rx_slack_s * 8)
                self._set_pending(wait, self._rx_timeout)
                return
            # Qualified but not selected: stand down for the exchange.
            self._update_nav(self.timing.data_airtime_s
                             + len(schedule.receiver_order)
                             * self.timing.t_ack_s)
            self._end_cycle(transacted=False)
            return
        # Overheard someone else's schedule: NAV for the data + ACKs.
        self._update_nav(self.timing.data_airtime_s
                         + len(schedule.receiver_order) * self.timing.t_ack_s)

    def _on_data(self, frame: DataFrame) -> None:
        self._heard_traffic = True
        if (self.state is not AgentState.RX_WAIT_DATA
                or frame.src != self._rx_sender):
            return
        self.stats.data_received += 1
        self.on_data_accepted(frame, self._rx_assigned_ftd)
        ack = Ack(self.node_id, dst=frame.src, message_id=frame.message_id)
        delay = (self._rx_slot - 1) * self.timing.t_ack_s + self.params.rx_slack_s
        self.scheduler.schedule(delay, self._send_ack, ack)
        # The receiver served this cycle; close it after the ACK slot.
        self._set_pending(delay + self.timing.control_airtime_s
                          + self.params.rx_slack_s, self._rx_transaction_done)

    def _send_ack(self, ack: Ack) -> None:
        if self.radio.can_receive:
            self.stats.acks_sent += 1
            self.radio.transmit(ack)

    def _rx_transaction_done(self) -> None:
        self._end_cycle(transacted=True)

    def _on_ack(self, ack: Ack) -> None:
        self._heard_traffic = True
        if (self.state is AgentState.AWAIT_ACKS and ack.dst == self.node_id
                and self._head is not None
                and ack.message_id == self._head.message_id):
            self.stats.acks_received += 1
            self._acked.add(ack.src)

    def _on_corrupted_frame(self, frame: Frame) -> None:
        """Medium callback: an audible frame was corrupted at this radio."""
        self._heard_traffic = True
        if self.state is AgentState.AWAIT_CTS:
            self._cts_window_collisions += 1

    def _rx_timeout(self) -> None:
        if self.state in (AgentState.RX_WAIT_RTS, AgentState.RX_WAIT_SCHEDULE,
                          AgentState.RX_WAIT_DATA):
            self.stats.rx_timeouts += 1
            self._end_cycle(transacted=False)

    def _update_nav(self, duration: float) -> None:
        if self.params.nav_enabled:
            self._nav_until = max(self._nav_until,
                                  self.scheduler.now + duration)


class CrossLayerAgent(MacAgent):
    """The paper's fault-tolerance-based protocol (Sec. 3 + Sec. 4).

    Forwarding policy: qualified receivers are nodes with strictly higher
    delivery probability and buffer room at the message's FTD; the
    receiver subset is the Sec. 3.2.2 greedy; copy FTDs follow Eq. 2, the
    sender's own copy follows Eq. 3, and ``xi`` follows Eq. 1.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.estimator = DeliveryProbabilityEstimator(self.params, self.scheduler)

    def start(self) -> None:
        """Boot the agent (sinks just listen; sensors start cycling)."""
        self.estimator.start()
        super().start()

    @property
    def xi(self) -> float:
        """Current delivery probability estimate."""
        return self.estimator.xi

    def advertised_metric(self) -> float:
        """Metric carried in this agent's RTS/CTS frames."""
        return self.estimator.xi

    def evaluate_rts(self, rts: Rts) -> Tuple[bool, int]:
        """Receiver qualification for an incoming RTS."""
        if rts.message_id in self.queue:
            # Already holding this message: accepting another copy adds
            # no redundancy, it would only inflate the sender's FTD.
            return False, 0
        slots = self.queue.available_slots_for(rts.ftd)
        return (self.estimator.xi > rts.xi and slots > 0), slots

    def build_phi(self, head: MessageCopy,
                  candidates: Sequence[Candidate]) -> List[Candidate]:
        """Receiver-set selection from the CTS responders."""
        return select_receivers(self.estimator.xi, head.ftd, candidates,
                                self.params.delivery_threshold_r)

    def copy_assignments(self, head: MessageCopy,
                         phi: Sequence[Candidate]) -> Dict[int, float]:
        """Per-receiver FTDs for the SCHEDULE frame."""
        xis = [c.xi for c in phi]
        return {
            c.node_id: receiver_copy_ftd(head.ftd, self.estimator.xi, xis, j)
            for j, c in enumerate(phi)
        }

    def on_data_accepted(self, frame: DataFrame, assigned_ftd: float) -> None:
        """Store or consume an accepted DATA frame."""
        copy: MessageCopy = frame.payload
        self.queue.insert(copy.forwarded(assigned_ftd, self.scheduler.now))

    def after_multicast(self, head: MessageCopy,
                        confirmed: Sequence[Candidate]) -> None:
        """Post-ACK-window state update."""
        if not confirmed:
            return
        xis = [c.xi for c in confirmed]
        self.estimator.on_transmission(xis)
        new_ftd = sender_ftd_after_multicast(head.ftd, xis)
        self.queue.remove(head.message_id)
        # Eq. 3 pushed the copy's FTD up; the queue's threshold rule drops
        # it if redundancy is now sufficient (always true after a sink ACK,
        # whose xi = 1 drives the FTD to 1).
        self.queue.reinsert_with_ftd(head, new_ftd)


class SinkAgent(MacAgent):
    """A high-end sink: always awake, xi = 1, unbounded buffer.

    Sinks never initiate transfers; they answer every RTS and record
    deliveries with the metrics collector.
    """

    is_sink = True

    def start(self) -> None:
        # Sinks stay in IDLE listening forever; no cycles, no sleeping.
        """Boot the agent (sinks just listen; sensors start cycling)."""
        self.state = AgentState.IDLE

    def advertised_metric(self) -> float:
        """Metric carried in this agent's RTS/CTS frames."""
        return 1.0

    def evaluate_rts(self, rts: Rts) -> Tuple[bool, int]:
        """Receiver qualification for an incoming RTS."""
        return True, self.queue.capacity

    def build_phi(self, head: MessageCopy,
                  candidates: Sequence[Candidate]) -> List[Candidate]:
        """Receiver-set selection from the CTS responders."""
        return []  # sinks never send

    def copy_assignments(self, head: MessageCopy,
                         phi: Sequence[Candidate]) -> Dict[int, float]:
        """Per-receiver FTDs for the SCHEDULE frame."""
        return {}

    def on_data_accepted(self, frame: DataFrame, assigned_ftd: float) -> None:
        """Store or consume an accepted DATA frame."""
        copy: MessageCopy = frame.payload
        if self.collector is not None:
            self.collector.record_delivery(copy, self.node_id,
                                           self.scheduler.now)

    def after_multicast(self, head: MessageCopy,
                        confirmed: Sequence[Candidate]) -> None:
        """Post-ACK-window state update."""
        raise AssertionError("sinks never multicast")

    def _start_cycle(self) -> None:  # pragma: no cover - sinks do not cycle
        self.state = AgentState.IDLE

    def _end_cycle(self, transacted: bool, countable: bool = True) -> None:
        # A sink finishing a receive transaction just resumes listening.
        self._cancel_pending()
        self._rx_sender = None
        self.state = AgentState.IDLE
