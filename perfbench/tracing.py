"""Span tracing for the traced benchmark run, applied from outside the program.

:class:`Tracer` patches the simulator's classes for the duration of one
run and restores them afterwards, so the simulator itself carries no
tracing code.  It records two kinds of spans, both timed in CPU seconds
(``time.process_time``):

* **dispatch spans** -- every callback handed to
  ``EventScheduler.schedule``/``schedule_at`` is wrapped, and the span is
  attributed to the layer that owns the callback (the second component of
  its owner's module: ``repro.radio.medium`` -> ``radio``);
* **boundary spans** -- the cross-layer public calls listed in
  :data:`BOUNDARIES` (mobility queries, radio primitives, queue
  operations, energy accounting, bus emits, contact exchange, policy
  decisions, invariant sweeps, ...).

A call that re-enters the operation already on top of the span stack
(``neighbor_set`` calling ``neighbors_of``) opens no new span.  Spans are
kept in memory, aggregated per ``(parent, name)`` edge of the call tree
with their count, total time and self time (total minus the time of
child spans), and written out by the caller when the run ends.  Because
every span nests inside the root span around ``run()``, the self times
of all spans add up to the root's CPU time exactly.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Sentinel name of the bottom stack frame (time outside any root span).
OUTSIDE = "<outside>"


def layer_of_module(module: str) -> str:
    """Layer name of a ``repro.<layer>...`` module (``other`` otherwise)."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


def _layer_of_callback(callback: Any, cache: Dict[str, str]) -> str:
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        module = type(owner).__module__
    else:
        target = getattr(callback, "func", callback)  # functools.partial
        module = getattr(target, "__module__", None) or ""
    layer = cache.get(module)
    if layer is None:
        layer = cache[module] = layer_of_module(module)
    return layer


#: Cross-layer calls wrapped in boundary spans:
#: ``(module, class, attribute, span name)``.  Methods are patched on the
#: named class and on every subclass that overrides them.
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    # set-up roots and their breakdown
    ("repro.network.simulation", "Simulation", "__init__", "network:build"),
    ("repro.network.simulation", "Simulation", "_build_mobility",
     "network:build_mobility"),
    ("repro.network.simulation", "Simulation", "_build_sinks",
     "network:build_nodes"),
    ("repro.network.simulation", "Simulation", "_build_sensors",
     "network:build_nodes"),
    ("repro.contact.simulator", "ContactSimulation", "__init__",
     "contact:build"),
    # run roots
    ("repro.network.simulation", "Simulation", "run", "network:run"),
    ("repro.contact.simulator", "ContactSimulation", "run", "contact:run"),
    # des
    ("repro.des.scheduler", "EventScheduler", "run_until", "des:run_until"),
    # mobility
    ("repro.mobility.manager", "MobilityManager", "step", "mobility:step"),
    ("repro.mobility.manager", "MobilityManager", "neighbors_of",
     "mobility:query"),
    ("repro.mobility.manager", "MobilityManager", "neighbor_set",
     "mobility:query"),
    ("repro.mobility.manager", "MobilityManager", "in_range",
     "mobility:query"),
    ("repro.mobility.manager", "MobilityManager", "position_of",
     "mobility:query"),
    # radio, as the MAC drives it
    ("repro.radio.transceiver", "Transceiver", "transmit", "radio:transmit"),
    ("repro.radio.transceiver", "Transceiver", "channel_busy",
     "radio:carrier_sense"),
    ("repro.radio.transceiver", "Transceiver", "sleep", "radio:power"),
    ("repro.radio.transceiver", "Transceiver", "wake", "radio:power"),
    ("repro.radio.transceiver", "Transceiver", "lpl_wake", "radio:power"),
    ("repro.radio.transceiver", "Transceiver", "lpl_next_sample_at",
     "radio:power"),
    ("repro.radio.transceiver", "Transceiver", "finalize", "radio:power"),
    # core: MAC entry points called by the radio, queue operations
    ("repro.core.protocol", "MacAgent", "on_frame", "core:rx"),
    ("repro.core.protocol", "MacAgent", "_on_corrupted_frame", "core:rx"),
    ("repro.core.protocol", "MacAgent", "_on_lpl_wake", "core:rx"),
    ("repro.core.protocol", "MacAgent", "enqueue_message", "core:enqueue"),
    ("repro.core.queue", "FtdQueue", "insert", "core:queue"),
    ("repro.core.queue", "FtdQueue", "peek", "core:queue"),
    ("repro.core.queue", "FtdQueue", "pop", "core:queue"),
    ("repro.core.queue", "FtdQueue", "remove", "core:queue"),
    ("repro.core.queue", "FtdQueue", "reinsert_with_ftd", "core:queue"),
    ("repro.core.queue", "FtdQueue", "purge", "core:queue"),
    ("repro.core.queue", "FtdQueue", "available_slots_for", "core:queue"),
    ("repro.core.queue", "FtdQueue", "count_more_important_than",
     "core:queue"),
    ("repro.core.queue", "FtdQueue", "importance_fraction", "core:queue"),
    ("repro.core.queue", "FtdQueue", "__iter__", "core:queue"),
    ("repro.core.queue", "FtdQueue", "__contains__", "core:queue"),
    # energy
    ("repro.energy.model", "EnergyMeter", "transition", "energy:transition"),
    ("repro.energy.model", "EnergyMeter", "add_energy", "energy:account"),
    ("repro.energy.model", "EnergyMeter", "finalize", "energy:account"),
    # contact level
    ("repro.contact.detector", "ContactTracer", "scan", "contact:scan"),
    ("repro.contact.simulator", "ContactSimulation", "_on_contact_end",
     "contact:exchange"),
    ("repro.contact.policies", "ContactPolicy", "wants_to_send",
     "protocols:decision"),
    ("repro.contact.policies", "ContactPolicy", "accept",
     "protocols:decision"),
    ("repro.contact.policies", "ContactPolicy", "after_transfer",
     "protocols:decision"),
    ("repro.contact.policies", "ContactPolicy", "enqueue_new",
     "protocols:enqueue"),
    # observation and checks
    ("repro.obs.bus", "TelemetryBus", "emit", "obs:emit"),
    ("repro.obs.export", "_BaseTraceWriter", "close", "obs:flush"),
    ("repro.checks.invariants", "InvariantChecker", "check_now",
     "checks:sweep"),
)

#: FTD equations (Eqs. 2-4) counted, not timed: they are a few float
#: operations each, far below the cost of a span.
FTD_FUNCTIONS = ("receiver_copy_ftd", "sender_ftd_after_multicast",
                 "combined_delivery_probability")


class Tracer:
    """Spans around the simulator's layers for one run.

    :meth:`install` before building the simulation, :meth:`uninstall`
    after its run.  The aggregate call tree is in :attr:`edges` as
    ``(parent, name) -> [count, total_s, self_s]``; :attr:`counters`
    holds plain counts.
    """

    def __init__(self) -> None:
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        #: The set-up spans, once :meth:`mark_built` has been called.
        self.build_edges: Dict[Tuple[str, str], List[float]] = {}
        self.counters: Dict[str, int] = {"des.scheduled": 0,
                                         "core.ftd_calls": 0,
                                         "contact.offers": 0}
        # Frames are [name, start, child_time]; the bottom one never pops.
        self._stack: List[List[Any]] = [[OUTSIDE, 0.0, 0.0]]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._layer_cache: Dict[str, str] = {}
        #: Boundaries that no longer exist in the program (never patched).
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # span machinery
    # ------------------------------------------------------------------
    def _record(self, parent: str, name: str, total: float,
                self_time: float) -> None:
        edge = self.edges.get((parent, name))
        if edge is None:
            self.edges[(parent, name)] = [1, total, self_time]
        else:
            edge[0] += 1
            edge[1] += total
            edge[2] += self_time

    def span(self, name: str, fn: Callable[..., Any],
             keep_name: bool = True) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name``.

        ``keep_name`` copies ``fn``'s name and module onto the wrapper;
        dispatch spans skip it, as they are made once per event.
        """
        clock = time.process_time
        stack = self._stack
        record = self._record

        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[2] += total
                record(parent[0], name, total, total - frame[2])

        return functools.wraps(fn)(traced) if keep_name else traced

    def _dispatch(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        name = _layer_of_callback(callback, self._layer_cache) + ":dispatch"
        return self.span(name, callback, keep_name=False)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls: type, attr: str, name: str) -> None:
        todo = [cls]
        found = False
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            if attr in klass.__dict__:
                found = True
                self._patch(klass, attr, self.span(name, klass.__dict__[attr]))
        if not found:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")

    def _patch_scheduler(self) -> None:
        from repro.des.scheduler import EventScheduler

        counters = self.counters
        dispatch = self._dispatch
        schedule = EventScheduler.__dict__["schedule"]
        schedule_at = EventScheduler.__dict__["schedule_at"]
        push = self.span("des:schedule",
                         lambda fn, *args, **kwargs: fn(*args, **kwargs))

        def traced_schedule(sched: Any, delay: float,
                            callback: Callable[..., Any], *args: Any,
                            priority: int = 0) -> Any:
            counters["des.scheduled"] += 1
            return push(schedule, sched, delay, dispatch(callback), *args,
                        priority=priority)

        def traced_schedule_at(sched: Any, when: float,
                               callback: Callable[..., Any], *args: Any,
                               priority: int = 0) -> Any:
            counters["des.scheduled"] += 1
            return push(schedule_at, sched, when, dispatch(callback), *args,
                        priority=priority)

        self._patch(EventScheduler, "schedule", traced_schedule)
        self._patch(EventScheduler, "schedule_at", traced_schedule_at)

    def _patch_offers(self) -> None:
        """Count the copies ``wants_to_send`` offers (before spans wrap it)."""
        from repro.contact.policies import ContactPolicy

        counters = self.counters
        todo: List[type] = [ContactPolicy]
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            original = klass.__dict__.get("wants_to_send")
            if original is None:
                continue

            def counted(*args: Any, _fn: Any = original) -> Any:
                copy = _fn(*args)
                if copy is not None:
                    counters["contact.offers"] += 1
                return copy

            self._patch(klass, "wants_to_send",
                        functools.wraps(original)(counted))

    def _patch_ftd(self) -> None:
        import repro.core.ftd as ftd

        counters = self.counters
        for fname in FTD_FUNCTIONS:
            original = getattr(ftd, fname)

            def counted(*args: Any, _fn: Any = original, **kwargs: Any) -> Any:
                counters["core.ftd_calls"] += 1
                return _fn(*args, **kwargs)

            replacement = functools.wraps(original)(counted)
            # Callers bind the functions at import time, so every module
            # holding the original object gets the counting version.
            for mod_name, module in list(sys.modules.items()):
                if (mod_name.startswith("repro")
                        and getattr(module, fname, None) is original):
                    self._patch(module, fname, replacement)

    def install(self) -> None:
        """Patch the simulator (the order matters: spans wrap counters)."""
        import importlib

        self._patch_ftd()
        self._patch_offers()
        self._patch_scheduler()
        for module, cls_name, attr, name in BOUNDARIES:
            owner = getattr(importlib.import_module(module), cls_name, None)
            if owner is None:
                self.missing.append(f"{module}.{cls_name}")
            else:
                self._patch_method(owner, attr, name)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def count(self, name: str) -> int:
        """Number of ``name`` spans."""
        return int(sum(e[0] for (_, n), e in self.edges.items() if n == name))

    def total(self, name: str, parent: Optional[str] = None) -> float:
        """Inclusive CPU seconds of ``name`` spans."""
        return sum(e[1] for (p, n), e in self.edges.items()
                   if n == name and (parent is None or p == parent))

    def self_time(self, name: str) -> float:
        """Self CPU seconds of ``name`` spans."""
        return sum(e[2] for (_, n), e in self.edges.items() if n == name)

    def layer_self(self) -> Dict[str, float]:
        """Self CPU seconds per layer, over every recorded span."""
        out: Dict[str, float] = {}
        for (_, name), edge in self.edges.items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0.0) + edge[2]
        return out

    def mark_built(self) -> None:
        """Move the spans recorded so far (set-up) to :attr:`build_edges`."""
        self.build_edges, self.edges = self.edges, {}

    def to_json(self) -> List[Dict[str, object]]:
        """The aggregated call tree as plain rows (for writing out)."""
        return [{"parent": p, "name": n, "count": int(e[0]),
                 "total_s": e[1], "self_s": e[2]}
                for (p, n), e in sorted(self.edges.items())]
