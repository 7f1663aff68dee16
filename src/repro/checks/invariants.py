"""Runtime protocol-invariant checking (Sec. 3.1-3.2 of the paper).

The :class:`InvariantChecker` rides inside a running
:class:`~repro.network.simulation.Simulation` and periodically asserts
the structural properties every protocol variant must preserve:

* **INV-XI** (Eq. 1) — every sensor's advertised delivery probability
  stays in [0, 1];
* **INV-FTD** (Eq. 2-3) — every queued message copy's fault-tolerance
  degree stays in [0, 1];
* **INV-ORDER** (Sec. 3.1.2) — every data queue stays sorted by
  ascending ``(ftd, seq)`` with its key index mirroring its copies and
  its message-id index holding each buffered id once, at its key;
* **INV-BUFFER** — queue occupancy never exceeds capacity;
* **INV-CLOCK** — the scheduler clock never runs backwards and no
  pending event is scheduled in the past;
* **INV-CONSERVE** — message-copy conservation: a queue's occupancy
  equals copies kept (inserted + reinserted) minus copies that left
  (popped + delivered + overflow-dropped + reboot-purged), and
  network-wide every delivered message was generated, no later than it
  was delivered.

Violations raise a structured :exc:`InvariantViolation` naming the
invariant, the node, the simulation time and the paper equation.

Checking is enabled per run via ``SimulationConfig.check_invariants`` /
``dftmsn single --check-invariants``, or process-wide through the
``REPRO_CHECK_INVARIANTS`` environment variable — the test suite forces
the latter (see :mod:`repro.checks.pytest_plugin`), so every simulation
any test runs doubles as an invariant test.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Protocol, Sequence

from repro.core.queue import FtdQueue
from repro.des.scheduler import EventScheduler

#: Environment variable that force-enables checking in every simulation
#: of the process (and, by inheritance, of its worker processes).
ENV_FLAG = "REPRO_CHECK_INVARIANTS"


def invariants_forced() -> bool:
    """Whether the :data:`ENV_FLAG` environment toggle is set."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class InvariantViolation(AssertionError):
    """A protocol invariant failed during a run.

    Carries structured context: ``invariant`` (the INV-* identifier),
    ``node`` (offending node id, or None for network-wide checks),
    ``time`` (simulation seconds) and ``equation`` (the paper equation
    or section the invariant encodes).
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        *,
        node: Optional[int] = None,
        time: float = 0.0,
        equation: Optional[str] = None,
    ) -> None:
        self.invariant = invariant
        self.detail = detail
        self.node = node
        self.time = time
        self.equation = equation
        where = "network" if node is None else f"node {node}"
        eq = f" [{equation}]" if equation else ""
        super().__init__(
            f"{invariant}{eq} violated at t={time:.6f}s ({where}): {detail}")


class _SensorLike(Protocol):
    """What the checker needs from a sensor node."""

    node_id: int
    agent: Any
    queue: FtdQueue


class _CollectorLike(Protocol):
    """What the checker needs from the metrics collector."""

    generated: Dict[int, float]
    deliveries: Dict[int, Any]


def check_queue_invariants(
    queue: FtdQueue,
    *,
    node: Optional[int] = None,
    now: float = 0.0,
) -> None:
    """Assert INV-FTD / INV-ORDER / INV-BUFFER / INV-CONSERVE on a queue.

    Also usable standalone (the property-based queue tests call it after
    every operation).
    """
    keys = queue.sort_keys()
    copies = list(queue)
    index = queue.message_ids()
    if len(keys) != len(copies):
        raise InvariantViolation(
            "INV-ORDER", f"key index has {len(keys)} entries for "
            f"{len(copies)} copies", node=node, time=now,
            equation="Sec. 3.1.2")
    if len(index) != len(copies):
        raise InvariantViolation(
            "INV-ORDER", f"id index has {len(index)} entries for "
            f"{len(copies)} copies (an id buffered twice or a stale "
            f"entry)", node=node, time=now, equation="Sec. 3.1.2")
    for i, (key, copy) in enumerate(zip(keys, copies)):
        if index.get(copy.message_id) != key:
            raise InvariantViolation(
                "INV-ORDER", f"id index maps message {copy.message_id} to "
                f"{index.get(copy.message_id)!r}, not its slot {i} key "
                f"{key!r}", node=node, time=now, equation="Sec. 3.1.2")
        if not 0.0 <= copy.ftd <= 1.0:
            raise InvariantViolation(
                "INV-FTD", f"copy of message {copy.message_id} at slot {i} "
                f"has FTD {copy.ftd!r} outside [0, 1]", node=node, time=now,
                equation="Eq. 2-3")
        if key[0] != copy.ftd:
            raise InvariantViolation(
                "INV-ORDER", f"sort key {key[0]!r} at slot {i} does not "
                f"match copy FTD {copy.ftd!r}", node=node, time=now,
                equation="Sec. 3.1.2")
        if i and keys[i - 1] > key:
            raise InvariantViolation(
                "INV-ORDER", f"keys not ascending at slot {i}: "
                f"{keys[i - 1]!r} > {key!r}", node=node, time=now,
                equation="Sec. 3.1.2")
    if len(copies) > queue.capacity:
        raise InvariantViolation(
            "INV-BUFFER", f"occupancy {len(copies)} exceeds capacity "
            f"{queue.capacity}", node=node, time=now, equation="Sec. 3.1.2")
    stats = queue.stats
    expected = (stats.inserted + stats.reinserted - stats.popped
                - stats.removed_delivered - stats.drops_overflow
                - stats.purged)
    if len(copies) != expected:
        raise InvariantViolation(
            "INV-CONSERVE",
            f"occupancy {len(copies)} != inserted {stats.inserted} "
            f"+ reinserted {stats.reinserted} - popped {stats.popped} "
            f"- delivered {stats.removed_delivered} "
            f"- overflow {stats.drops_overflow} - purged {stats.purged}",
            node=node, time=now, equation="Sec. 3.1.2")


class InvariantChecker:
    """Periodic in-run assertion of the protocol invariants.

    Wired by :meth:`Simulation.run`: :meth:`install` schedules a
    self-rescheduling check event every ``interval_s`` simulated
    seconds (after all same-time protocol events, via a low event
    priority), and the simulation calls :meth:`check_now` once more
    after the event loop drains.  The checker only reads state — it
    never draws randomness or mutates protocol objects — so enabling it
    cannot change a run's protocol metrics (the scheduler's
    ``events_fired`` total does additionally count the sweep events).
    """

    #: Event priority of the periodic check: larger than any protocol
    #: event's, so a check observes post-transaction state.
    CHECK_PRIORITY = 1_000_000

    def __init__(
        self,
        scheduler: EventScheduler,
        sensors: Sequence[_SensorLike],
        collector: Optional[_CollectorLike] = None,
        interval_s: float = 100.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("check interval must be positive")
        self.scheduler = scheduler
        self.sensors = list(sensors)
        self.collector = collector
        self.interval_s = interval_s
        self.checks_run = 0
        self._last_now = scheduler.now
        self._until = float("inf")

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def install(self, until: float) -> None:
        """Schedule periodic checks up to simulation time ``until``."""
        self._until = until
        first = min(self.interval_s, until)
        self.scheduler.schedule(first, self._periodic_check,
                                priority=self.CHECK_PRIORITY)

    def _periodic_check(self) -> None:
        self.check_now()
        if self.scheduler.now + self.interval_s <= self._until:
            self.scheduler.schedule(self.interval_s, self._periodic_check,
                                    priority=self.CHECK_PRIORITY)

    # ------------------------------------------------------------------
    # the checks
    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Run every invariant check against the current state."""
        now = self.scheduler.now
        self._check_clock(now)
        for sensor in self.sensors:
            self._check_xi(sensor, now)
            check_queue_invariants(sensor.queue, node=sensor.node_id, now=now)
        self._check_deliveries(now)
        self.checks_run += 1

    def _check_clock(self, now: float) -> None:
        if now < self._last_now:
            raise InvariantViolation(
                "INV-CLOCK", f"clock ran backwards: {now!r} after "
                f"{self._last_now!r}", time=now, equation="DES ordering")
        self._last_now = now
        for event in self.scheduler.pending_events():
            if event.active and event.time < now:
                raise InvariantViolation(
                    "INV-CLOCK", f"pending event at t={event.time!r} lies "
                    f"in the past ({event!r})", time=now,
                    equation="DES ordering")

    def _check_xi(self, sensor: _SensorLike, now: float) -> None:
        metric = sensor.agent.advertised_metric()
        if not 0.0 <= metric <= 1.0:
            raise InvariantViolation(
                "INV-XI", f"advertised delivery probability {metric!r} "
                "outside [0, 1]", node=sensor.node_id, time=now,
                equation="Eq. 1")

    def _check_deliveries(self, now: float) -> None:
        collector = self.collector
        if collector is None:
            return
        if len(collector.deliveries) > len(collector.generated):
            raise InvariantViolation(
                "INV-CONSERVE", f"{len(collector.deliveries)} deliveries "
                f"exceed {len(collector.generated)} generations", time=now)
        for mid, record in collector.deliveries.items():
            if mid not in collector.generated:
                raise InvariantViolation(
                    "INV-CONSERVE", f"delivered message {mid} was never "
                    "generated", time=now)
            if record.delivered_at < record.created_at:
                raise InvariantViolation(
                    "INV-CONSERVE", f"message {mid} delivered at "
                    f"{record.delivered_at!r} before its creation at "
                    f"{record.created_at!r}", time=now)
