"""Protocol-phase spans reconstructed from bus events.

A span is a closed interval of simulated time during which a node was
in one protocol phase: the asynchronous handshake (``async``), the
synchronous SCHEDULE→ACK round (``sync``), or a sleep interval
(``sleep``).  The agents emit :class:`~repro.obs.events.PhaseExit`
carrying the duration, and the energy meter's wake event carries the
slept interval, so the tracker only has to listen — it never queries
simulation state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.obs.bus import TelemetryBus
from repro.obs.events import PhaseExit, RadioWake, TelemetryEvent

SLEEP_PHASE = "sleep"


@dataclass(frozen=True)
class Span:
    """One completed phase interval ``[start, end]`` on ``node``."""

    node: int
    phase: str
    start: float
    end: float
    outcome: str

    @property
    def duration_s(self) -> float:
        """Length of the span in simulated seconds."""
        return self.end - self.start


class SpanTracker:
    """Collects completed :class:`Span` objects from a bus.

    Keeps at most ``max_spans`` (oldest evicted first) so long runs
    cannot grow memory without bound; the per-phase summary keeps full
    counts regardless of eviction.  ``max_spans=0`` keeps no ring at
    all: the handlers build no :class:`Span` and only the summary is
    kept, which is what a simulation's own tracker does.
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        self._spans: Optional[Deque[Span]] = (
            None if max_spans == 0 else deque(maxlen=max_spans))
        self._counts: Dict[str, int] = {}
        self._totals: Dict[str, float] = {}
        self._outcomes: Dict[str, Dict[str, int]] = {}

    def subscribe(self, bus: TelemetryBus) -> None:
        """Listen for phase exits and wake events on ``bus``."""
        bus.subscribe(PhaseExit.topic, self._on_phase_exit)
        bus.subscribe(RadioWake.topic, self._on_radio_wake)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _record(self, node: int, phase: str, start: float, end: float,
                outcome: str) -> None:
        if self._spans is not None:
            self._spans.append(Span(node, phase, start, end, outcome))
        self._counts[phase] = self._counts.get(phase, 0) + 1
        # ``end - start``, as Span.duration_s computes it.
        self._totals[phase] = self._totals.get(phase, 0.0) + (end - start)
        per_outcome = self._outcomes.setdefault(phase, {})
        per_outcome[outcome] = per_outcome.get(outcome, 0) + 1

    def _on_phase_exit(self, event: TelemetryEvent) -> None:
        assert isinstance(event, PhaseExit)
        end = event.time
        self._record(event.node, event.phase, end - event.duration_s, end,
                     event.outcome)

    def _on_radio_wake(self, event: TelemetryEvent) -> None:
        assert isinstance(event, RadioWake)
        end = event.time
        self._record(event.node, SLEEP_PHASE, end - event.slept_s, end,
                     "lpl" if event.lpl else "full")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def spans(self, phase: str = "") -> List[Span]:
        """Retained spans, optionally filtered to one phase."""
        spans = self._spans or ()
        if not phase:
            return list(spans)
        return [span for span in spans if span.phase == phase]

    def __len__(self) -> int:
        return 0 if self._spans is None else len(self._spans)

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-phase aggregate: count, total/mean duration, outcomes.

        Sorted and JSON-plain, so seeded runs summarize identically.
        """
        out: Dict[str, Dict[str, object]] = {}
        for phase in sorted(self._counts):
            count = self._counts[phase]
            total = self._totals[phase]
            out[phase] = {
                "count": count,
                "total_s": total,
                "mean_s": total / count,
                "outcomes": {name: self._outcomes[phase][name]
                             for name in sorted(self._outcomes[phase])},
            }
        return out
