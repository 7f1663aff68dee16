"""Per-node radio transceiver: state machine + energy accounting."""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.des.scheduler import EventScheduler
from repro.energy.model import EnergyMeter, PowerProfile
from repro.radio.frames import Frame
from repro.radio.medium import WirelessMedium
from repro.radio.states import RadioState


class RadioError(RuntimeError):
    """Raised on invalid radio operations (e.g. transmitting while asleep)."""


class Transceiver:
    """Half-duplex radio attached to the shared medium.

    The protocol agent drives the radio through :meth:`transmit`,
    :meth:`sleep` and :meth:`wake`, and receives frames through the
    ``on_frame`` callback.  Every state change is charged to the node's
    :class:`~repro.energy.model.EnergyMeter`.
    """

    def __init__(
        self,
        node_id: int,
        medium: WirelessMedium,
        scheduler: EventScheduler,
        profile: PowerProfile,
    ) -> None:
        self.node_id = node_id
        self.medium = medium
        self._medium = medium
        self._scheduler = scheduler
        self._state = RadioState.LISTENING
        #: Whether an incoming frame can currently be decoded
        #: (half-duplex: listening or receiving).  Kept as a plain bool,
        #: updated on every state change — the medium reads it once per
        #: (transmission, receiver) pair, where the enum-property chain
        #: ``state.can_receive`` is measurably hot.
        self.can_receive = True
        self.meter = EnergyMeter(profile, start_time=scheduler.now)
        self.on_frame: Optional[Callable[[Frame], None]] = None
        self.on_collision: Optional[Callable[[Frame], None]] = None
        # Low-power listening: while sleeping, the radio samples the
        # channel every lpl_sample_interval_s (None disables).  Samples
        # are charged as rx power for lpl_sample_s each, without a full
        # on/off transition (they are what makes LPL cheap).
        self.lpl_sample_interval_s: Optional[float] = None
        self.lpl_sample_s: float = 0.005
        self.on_lpl_wake: Optional[Callable[[], None]] = None
        self._slept_at: Optional[float] = None
        self.lpl_wakes = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.collisions_heard = 0
        medium.attach(self)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def state(self) -> RadioState:
        """Current radio state."""
        return self._state

    def _set_state(self, new_state: RadioState, lpl_cheap: bool = False) -> None:
        if new_state is not self._state:
            self.meter.transition(new_state, self._scheduler.now,
                                  lpl_cheap=lpl_cheap)
            self._state = new_state
            self.can_receive = (new_state is RadioState.LISTENING
                                or new_state is RadioState.RECEIVING)

    def sleep(self, lpl_resume: bool = False) -> None:
        """Turn the radio off (cannot be called mid-transmission).

        ``lpl_resume`` marks the cheap return to sleep after a
        low-power-listening sample wake (no full off sequence).
        """
        if self._state is RadioState.TRANSMITTING:
            raise RadioError(f"node {self.node_id}: cannot sleep while transmitting")
        if self._state is not RadioState.SLEEPING:
            self._slept_at = self._scheduler.now
        self._set_state(RadioState.SLEEPING, lpl_cheap=lpl_resume)

    def wake(self) -> None:
        """Turn the radio on into idle listening."""
        if self._state is RadioState.SLEEPING:
            self._charge_lpl_samples()
            self._set_state(RadioState.LISTENING)

    def _charge_lpl_samples(self) -> None:
        """Account the channel samples taken during the sleep just ended."""
        if self.lpl_sample_interval_s is None or self._slept_at is None:
            return
        slept = self._scheduler.now - self._slept_at
        samples = int(slept / self.lpl_sample_interval_s)
        if samples > 0:
            mj = samples * self.lpl_sample_s * self.meter.profile.rx_mw
            self.meter.add_energy(mj, RadioState.SLEEPING)
        self._slept_at = None

    def lpl_next_sample_at(self, now: float) -> Optional[float]:
        """Next channel-sample instant, or None when LPL is off/awake.

        Sample phases are fixed per node (unsynchronized clocks), so the
        instant is deterministic for a given node and time.
        """
        if (self.lpl_sample_interval_s is None
                or self._state is not RadioState.SLEEPING):
            return None
        interval = self.lpl_sample_interval_s
        phase = (self.node_id * 0.618_033_988_75) % 1.0 * interval
        periods = math.floor((now - phase) / interval) + 1
        when = periods * interval + phase
        while when <= now:  # guard against float edge cases
            when += interval
        return when

    def lpl_wake(self) -> None:
        """Wake because a channel sample detected a preamble.

        Charged as a cheap LPL transition: the receiver was already
        duty-cycling, not fully powered down.
        """
        if self._state is not RadioState.SLEEPING:
            return
        self.lpl_wakes += 1
        self._charge_lpl_samples()
        self._set_state(RadioState.LISTENING, lpl_cheap=True)
        if self.on_lpl_wake is not None:
            self.on_lpl_wake()

    # ------------------------------------------------------------------
    # channel access
    # ------------------------------------------------------------------
    def channel_busy(self) -> bool:
        """Physical carrier sense (requires an awake radio)."""
        if self._state is RadioState.SLEEPING:
            raise RadioError(f"node {self.node_id}: carrier sense while asleep")
        return self._medium.channel_busy(self.node_id)

    def transmit(
        self,
        frame: Frame,
        on_done: Optional[Callable[[], None]] = None,
    ) -> float:
        """Broadcast ``frame``; returns the airtime in seconds.

        The radio transmits for the frame's airtime, then returns to
        listening and invokes ``on_done`` (from the medium's end-of-frame
        event, after the frame's audience has been served).
        """
        if self._state is RadioState.SLEEPING:
            raise RadioError(f"node {self.node_id}: transmit while asleep")
        if self._state is RadioState.TRANSMITTING:
            raise RadioError(f"node {self.node_id}: already transmitting")
        self._set_state(RadioState.TRANSMITTING)
        duration = self._medium.begin_transmission(self, frame, on_done)
        self.frames_sent += 1
        return duration

    # ------------------------------------------------------------------
    # medium callbacks
    # ------------------------------------------------------------------
    def deliver(self, frame: Frame) -> None:
        """Called by the medium when a frame is decodable at this radio."""
        self.frames_received += 1
        if self.on_frame is not None:
            self.on_frame(frame)

    def notify_collision(self, frame: Frame) -> None:
        """Called by the medium when an audible frame was corrupted here."""
        self.collisions_heard += 1
        if self.on_collision is not None:
            self.on_collision(frame)

    def end_transmission(self, on_done: Optional[Callable[[], None]]) -> None:
        """Called by the medium when this radio's own frame has ended."""
        self._set_state(RadioState.LISTENING)
        if on_done is not None:
            on_done()

    def finalize(self) -> None:
        """Flush energy accounting at the end of a run."""
        self.meter.finalize(self._scheduler.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transceiver(node={self.node_id}, state={self._state.value})"
