"""Trace exporters: stream bus events to JSONL or CSV on disk.

Writers subscribe to the wildcard topic and serialize each event as it
is emitted, so trace memory stays O(1) regardless of run length.  Field
order inside each record follows the event dataclass declaration order
(``topic`` first), which keeps seeded traces byte-identical.  Both
writers hand each line to a C encoder (``json``'s one-shot encoder,
``csv.writer``); the per-event Python work is building one dict or one
tuple.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from operator import attrgetter, itemgetter
from pathlib import Path
from types import TracebackType
from typing import Any, Callable, Dict, IO, List, Optional, Type, Union

from repro.obs.bus import ALL_TOPICS, TelemetryBus
from repro.obs.events import (
    ContactEnd,
    ContactStart,
    FaultInject,
    FaultRecover,
    FrameCollision,
    FrameRx,
    FrameTx,
    MessageDelivered,
    MessageGenerated,
    PhaseEnter,
    PhaseExit,
    QueueDrop,
    RadioSleep,
    RadioWake,
    TelemetryEvent,
    event_to_dict,
)

#: Every field any event can carry, in stable order: the CSV header.
CSV_COLUMNS: List[str] = ["topic", "time"]
for _cls in (FrameTx, FrameRx, FrameCollision, RadioSleep, RadioWake,
             ContactStart, ContactEnd, FaultInject, FaultRecover,
             QueueDrop, PhaseEnter, PhaseExit,
             MessageGenerated, MessageDelivered):
    for _name in _cls.__dataclass_fields__:
        if _name not in CSV_COLUMNS:
            CSV_COLUMNS.append(_name)
del _cls, _name

#: One-shot encode takes json's C encoder; ``json.dump`` would not.
_encode = json.JSONEncoder(separators=(",", ":")).encode


@lru_cache(maxsize=None)
def _csv_row_getter(
        cls: Type[TelemetryEvent]) -> Callable[[TelemetryEvent], Any]:
    """``event -> row`` in :data:`CSV_COLUMNS` order for events of ``cls``.

    Fields ``cls`` lacks read a trailing ``None``, which ``csv`` writes
    as an empty cell, as it does an explicit ``None``.
    """
    fields = ("topic",) + tuple(cls.__dataclass_fields__)
    unknown = [name for name in fields if name not in CSV_COLUMNS]
    if unknown:
        raise ValueError(f"{cls.__name__} fields {unknown} are not CSV columns")
    values = attrgetter(*fields)
    pick = itemgetter(*(fields.index(name) if name in fields
                        else len(fields) for name in CSV_COLUMNS))
    return lambda event: pick(values(event) + (None,))


class _BaseTraceWriter:
    """Shared open/subscribe/close lifecycle for trace writers."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[IO[str]] = self.path.open("w", newline="")
        self._bus: Optional[TelemetryBus] = None
        self.events_written = 0

    def subscribe(self, bus: TelemetryBus) -> None:
        """Start receiving every event emitted on ``bus``."""
        bus.subscribe(ALL_TOPICS, self.write)
        self._bus = bus

    def write(self, event: TelemetryEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Detach from the bus, flush and close the file.

        Direct ``write`` calls after close raise; bus traffic no longer
        reaches the writer at all.
        """
        if self._bus is not None:
            self._bus.unsubscribe(ALL_TOPICS, self.write)
            self._bus = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "_BaseTraceWriter":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.close()

    def _handle(self) -> IO[str]:
        if self._fh is None:
            raise ValueError(f"trace writer for {self.path} is closed")
        return self._fh


class JsonlTraceWriter(_BaseTraceWriter):
    """One JSON object per line per event."""

    def write(self, event: TelemetryEvent) -> None:
        self._handle().write(_encode(event_to_dict(event)) + "\n")
        self.events_written += 1


class CsvTraceWriter(_BaseTraceWriter):
    """CSV with the fixed :data:`CSV_COLUMNS` superset header.

    Fields an event does not carry are left empty.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__(path)
        self._writer = csv.writer(self._handle())
        self._writer.writerow(CSV_COLUMNS)

    def write(self, event: TelemetryEvent) -> None:
        self._handle()  # raise cleanly if closed
        self._writer.writerow(_csv_row_getter(type(event))(event))
        self.events_written += 1


def writer_for_path(path: Union[str, Path]) -> _BaseTraceWriter:
    """A :class:`CsvTraceWriter` for ``*.csv``, JSONL for anything else."""
    if Path(path).suffix.lower() == ".csv":
        return CsvTraceWriter(path)
    return JsonlTraceWriter(path)


def _from_csv_row(row: Dict[str, str]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, raw in row.items():
        if raw == "" and key != "topic":
            continue
        if key in ("topic", "frame_kind", "cause", "phase", "outcome",
                   "model", "detail"):
            out[key] = raw
        elif key in ("lpl",):
            out[key] = raw == "True"
        elif key in ("node", "src", "message_id", "a", "b", "origin",
                     "hops", "bits", "dst"):
            out[key] = int(raw)
        else:
            out[key] = float(raw)
    return out


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load a JSONL or CSV trace file back into a list of event dicts."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with path.open(newline="") as fh:
            return [_from_csv_row(row) for row in csv.DictReader(fh)]
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]
