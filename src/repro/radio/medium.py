"""The shared wireless medium.

Implements broadcast propagation over a disc of radius ``comm_range`` with
frame-level collisions: any two transmissions that overlap in time at a
receiver that could hear both corrupt each other *at that receiver* (no
capture effect).  Carrier sense is physical: a node senses the channel
busy whenever any active transmission originates within its range.

Node positions are owned by the mobility substrate; the medium talks to it
through the small :class:`NeighborProvider` interface so that it stays
independent of any particular mobility model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    Optional,
    Protocol,
    Set,
)

from repro.des.scheduler import EventScheduler
from repro.obs.bus import TelemetryBus
from repro.obs.events import FrameCollision, FrameRx, FrameTx
from repro.radio.frames import Frame, FrameKind
from repro.radio.timing import ChannelTiming

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.radio.transceiver import Transceiver


class NeighborProvider(Protocol):
    """Spatial queries the medium needs, implemented by the mobility layer."""

    def neighbors_of(self, node_id: int) -> Iterable[int]:
        """Ids of all nodes currently within communication range."""
        ...

    def neighbor_set(self, node_id: int) -> AbstractSet[int]:
        """The ids of :meth:`neighbors_of` as a set."""
        ...

    def in_range(self, a: int, b: int) -> bool:
        """Whether nodes ``a`` and ``b`` are currently within range."""
        ...


class RadioFaultHook(Protocol):
    """Channel-impairment queries, implemented by a fault model.

    Installed via :meth:`WirelessMedium.bind_faults`; see
    :class:`repro.network.faults.RadioImpairment`.
    """

    def frame_blocked(self, src: int, dst: int) -> bool:
        """Whether the ``src -> dst`` link drops the frame starting now.

        Consulted once per (transmission, potential receiver) at
        transmission start; may consume the fault model's RNG stream.
        """
        ...

    def carrier_blocked(self, src: int, dst: int) -> bool:
        """Whether ``dst`` cannot even sense ``src``'s carrier.

        Must be RNG-free: carrier sense short-circuits, so a random
        draw here would make RNG consumption depend on call patterns.
        """
        ...


@dataclass
class MediumStats:
    """Channel-level counters collected by the medium."""

    transmissions: int = 0
    frames_delivered: int = 0
    frames_corrupted: int = 0
    bits_sent: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.transmissions = 0
        self.frames_delivered = 0
        self.frames_corrupted = 0
        self.bits_sent = 0


class _Transmission:
    """Bookkeeping for one in-flight frame."""

    __slots__ = ("frame", "radio", "src", "end", "on_done", "audience",
                 "corrupted")

    def __init__(self, frame: Frame, radio: "Transceiver", end: float,
                 on_done: Optional[Callable[[], None]]) -> None:
        self.frame = frame
        self.radio = radio
        self.src = radio.node_id
        self.end = end
        self.on_done = on_done
        self.audience: Set[int] = set()
        self.corrupted: Set[int] = set()


class WirelessMedium:
    """Shared broadcast channel connecting all transceivers."""

    def __init__(
        self,
        scheduler: EventScheduler,
        timing: ChannelTiming,
        neighbors: NeighborProvider,
    ) -> None:
        self._scheduler = scheduler
        self.timing = timing
        self._neighbors = neighbors
        self._neighbor_set = neighbors.neighbor_set
        self._radios: Dict[int, "Transceiver"] = {}
        # In-flight transmissions keyed by source id.  A radio must be
        # LISTENING to transmit and only returns to LISTENING at its own
        # frame's end (_end_transmission), so a source can never have two
        # frames in flight — the key is unique by construction.  Dict
        # insertion order matches the old list's append order, keeping
        # every iteration over active transmissions byte-identical.
        self._active: Dict[int, _Transmission] = {}
        # The keys of _active as a real set: set.isdisjoint(set) visits
        # the smaller operand, while passing a dict would iterate every
        # in-flight transmission (there can be hundreds at 10k nodes).
        self._active_srcs: Set[int] = set()
        # Reverse index: receiver id -> in-flight transmissions whose
        # audience contains it (the old per-frame "other_id in
        # t.audience" scan, precomputed).
        self._rx_audience: Dict[int, Set[_Transmission]] = {}
        self.stats = MediumStats()
        self._bus: Optional[TelemetryBus] = None
        self._fault_hook: Optional[RadioFaultHook] = None

    def bind_telemetry(self, bus: TelemetryBus) -> None:
        """Emit frame tx/rx/collision events on ``bus`` from now on."""
        self._bus = bus

    def bind_faults(self, hook: Optional[RadioFaultHook]) -> None:
        """Install (or with ``None`` remove) a channel-impairment hook.

        While installed, every potential receiver of a new transmission
        is first offered to ``hook.frame_blocked``; blocked receivers
        never join the audience (no decode, no LPL wake, no collision),
        and ``hook.carrier_blocked`` can hide in-flight carriers from
        :meth:`channel_busy`.
        """
        self._fault_hook = hook

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def attach(self, radio: "Transceiver") -> None:
        """Register a transceiver on the channel."""
        if radio.node_id in self._radios:
            raise ValueError(f"node {radio.node_id} already attached")
        self._radios[radio.node_id] = radio

    def radio_of(self, node_id: int) -> "Transceiver":
        """The transceiver attached for a node id."""
        return self._radios[node_id]

    # ------------------------------------------------------------------
    # carrier sense
    # ------------------------------------------------------------------
    def channel_busy(self, node_id: int) -> bool:
        """Physical carrier sense at ``node_id``.

        True when any in-flight transmission originates within range
        (regardless of whether this node can decode it).
        """
        active = self._active
        if not active:
            return False
        hook = self._fault_hook
        if hook is None:
            # Set intersection against the active sources: equivalent to
            # the per-transmission in_range() scan because the node is
            # never in its own neighbor set.
            return not self._neighbor_set(node_id).isdisjoint(self._active_srcs)
        return any(
            src != node_id
            and self._neighbors.in_range(src, node_id)
            and not hook.carrier_blocked(src, node_id)
            for src in active
        )

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def begin_transmission(
        self,
        radio: "Transceiver",
        frame: Frame,
        on_done: Optional[Callable[[], None]] = None,
    ) -> float:
        """Start broadcasting ``frame`` from ``radio``; returns airtime (s).

        The audience (receivers able to decode) is fixed at transmission
        start: in range, awake and not themselves transmitting.  Nodes
        joining mid-frame (e.g. waking up) cannot decode it, which matches
        preamble-synchronized radios.  One event ends the frame: it
        serves the audience, then hands the sender back ``on_done``
        through :meth:`Transceiver.end_transmission`.
        """
        size = frame.size_bits(self.timing.control_bits)
        duration = self.timing.airtime_s(size)
        now = self._scheduler.now
        tx = _Transmission(frame, radio, now + duration, on_done)

        wakes_sleepers = frame.kind is FrameKind.PREAMBLE
        fault_hook = self._fault_hook
        active_srcs = self._active_srcs
        rx_audience = self._rx_audience
        neighbor_set = self._neighbor_set
        radios_get = self._radios.get
        sender = radio.node_id
        tx_end = tx.end
        tx_corrupted = tx.corrupted
        tx_audience = tx.audience
        for other_id in self._neighbors.neighbors_of(sender):
            other = radios_get(other_id)
            if other is None or other_id == sender:
                continue
            if fault_hook is not None and fault_hook.frame_blocked(
                    sender, other_id):
                # Impaired link: the frame is attenuated below the decode
                # (and preamble-detect) threshold at this receiver.
                continue
            if not other.can_receive:
                # Low-power listening: a sleeping radio whose next channel
                # sample lands inside this preamble detects it and wakes
                # (in time for the RTS that follows the preamble).
                if wakes_sleepers:
                    sample_at = other.lpl_next_sample_at(now)
                    if sample_at is not None and sample_at < tx_end:
                        self._scheduler.schedule_at(sample_at, other.lpl_wake)
                continue
            # Interference from every other in-flight transmission audible
            # at this receiver corrupts both frames there.  "Audible" is
            # the union of two sets: transmissions whose audience already
            # contains this receiver (decodable since their start, even
            # if mobility moved the pair apart since) and transmissions
            # whose source is currently in range (carrier energy only).
            # The sender has no in-flight frame of its own (half-duplex),
            # so no self-exclusion is needed.
            in_audience = rx_audience.get(other_id)
            if in_audience:
                tx_corrupted.add(other_id)
                # Unordered iteration is safe: marking each interferer
                # corrupted at this receiver commutes.
                for t in in_audience:
                    t.corrupted.add(other_id)
                in_audience.add(tx)
            else:
                if active_srcs and not neighbor_set(other_id).isdisjoint(
                        active_srcs):
                    tx_corrupted.add(other_id)
                rx_audience[other_id] = {tx}
            tx_audience.add(other_id)

        self._active[sender] = tx
        active_srcs.add(sender)
        self.stats.transmissions += 1
        self.stats.bits_sent += size
        bus = self._bus
        if bus is not None:
            bus.emit(FrameTx(
                time=now, node=radio.node_id,
                frame_kind=frame.kind.value, src=frame.src, dst=frame.dst,
                message_id=getattr(frame, "message_id", None), bits=size))
        self._scheduler.schedule(duration, self._end_transmission, tx)
        return duration

    def _end_transmission(self, tx: _Transmission) -> None:
        del self._active[tx.src]
        self._active_srcs.discard(tx.src)
        rx_audience = self._rx_audience
        bus = self._bus
        frame = tx.frame
        if bus is not None:
            # Every receiver's event carries the same frame fields.
            now = self._scheduler.now
            kind = frame.kind.value
            src, dst = frame.src, frame.dst
            message_id = getattr(frame, "message_id", None)
        for node_id in tx.audience:
            bucket = rx_audience[node_id]
            if len(bucket) == 1:
                del rx_audience[node_id]
            else:
                bucket.remove(tx)
            radio = self._radios[node_id]
            if not radio.can_receive:
                # The receiver went to sleep / started transmitting
                # mid-frame and simply misses it — corrupted or not.
                # (The collision branch used to skip this check and
                # notified sleeping radios, inflating frames_corrupted.)
                continue
            if node_id in tx.corrupted:
                self.stats.frames_corrupted += 1
                if bus is not None:
                    bus.emit(FrameCollision(
                        time=now, node=node_id, frame_kind=kind, src=src,
                        dst=dst, message_id=message_id))
                radio.notify_collision(frame)
            else:
                self.stats.frames_delivered += 1
                if bus is not None:
                    bus.emit(FrameRx(
                        time=now, node=node_id, frame_kind=kind, src=src,
                        dst=dst, message_id=message_id))
                radio.deliver(frame)
        # The sender's frame ends after its audience is served, with the
        # sender still TRANSMITTING while they run.  Work a receiver
        # scheduled at this instant runs later: at priority 0 it has a
        # later sequence number, and no receiver schedules below 0.
        tx.radio.end_transmission(tx.on_done)
