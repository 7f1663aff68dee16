"""Trace exporters: stream bus events to JSONL or CSV on disk.

Writers subscribe to the wildcard topic and serialize each event as it
is emitted, so trace memory stays O(1) regardless of run length.  Field
order inside each record follows the event dataclass declaration order
(``topic`` first), which keeps seeded traces byte-identical.  A JSONL
line comes from one function per event class, compiled once from the
field annotations: a ``%`` template filled from the fields after an
exact type check per field.  A value the check does not admit sends
that one line through ``json``'s encoder instead.  CSV rows go to
``csv.writer`` as one tuple per event.
"""

from __future__ import annotations

import csv
import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from types import TracebackType
from typing import (Any, Callable, Dict, IO, List, Optional, Tuple, Type,
                    Union, get_args, get_type_hints)

from repro.obs.bus import ALL_TOPICS, TelemetryBus
from repro.obs.events import (
    EVENT_TYPES,
    TelemetryEvent,
    event_to_dict,
    event_type,
)

#: Every field any event can carry, in stable order: the CSV header.
CSV_COLUMNS: List[str] = list(dict.fromkeys(
    name for cls in EVENT_TYPES for name in cls.__dataclass_fields__))

#: One-shot encode takes json's C encoder; ``json.dump`` would not.
_encode = json.JSONEncoder(separators=(",", ":")).encode

_FieldType = Tuple[str, type, bool]


def _field_types(cls: Type[TelemetryEvent]) -> Tuple[_FieldType, ...]:
    """``(field, type, optional)`` per annotated field of ``cls``.

    ``topic`` comes first, then the dataclass fields in declaration
    order.  An ``Optional[T]`` field reads as ``T`` with ``optional``
    set; ``topic``'s ``ClassVar[str]`` reads as ``str``.
    """
    out: List[_FieldType] = []
    for name, hint in get_type_hints(cls).items():
        args = get_args(hint)
        inner = [arg for arg in args if arg is not type(None)]
        out.append((name, inner[0] if inner else hint, type(None) in args))
    return tuple(out)


def _json_line(event: TelemetryEvent) -> str:
    """``event``'s JSONL line through ``json``'s encoder."""
    return _encode(event_to_dict(event)) + "\n"


#: Per annotated type: the exact-type guard under which json writes a
#: field value ``{v}`` as the text ``%s`` makes of the expression beside
#: it.  ``%s`` of an exact int or float is its ``repr``, as in json;
#: ``v - v == 0.0`` holds for finite floats only, and json writes
#: ``NaN`` and ``Infinity`` itself.  A float subclass, a bool in an int
#: field and ``None`` where the annotation does not allow it all fail
#: their guard.
_JSON_FIELDS: Dict[type, Tuple[str, str]] = {
    float: ("type({v}) is float and {v} - {v} == 0.0", "{v}"),
    int: ("type({v}) is int", "{v}"),
    bool: ("type({v}) is bool", "('true' if {v} else 'false')"),
    str: ("type({v}) is str", "_quote({v})"),
}


def _compile_jsonl_line(
        cls: Type[TelemetryEvent]) -> Callable[[TelemetryEvent], str]:
    """``event -> JSONL line`` for events of ``cls``.

    The line is ``cls``'s ``%`` template filled field by field when
    every field passes its guard from :data:`_JSON_FIELDS`, and
    :func:`_json_line` otherwise.  Each guard admits only values json
    writes as the paired text (``repr`` of an exact int or finite
    float, ``encode_basestring_ascii`` of an exact str), so both paths
    give the same bytes.
    """
    template = '{"topic":' + encode_basestring_ascii(cls.topic).replace(
        "%", "%%")
    reads: List[str] = []
    guards: List[str] = []
    texts: List[str] = []
    for name, kind, optional in _field_types(cls):
        if name == "topic":
            continue
        v = f"v{len(reads)}"
        reads.append(f"    {v} = event.{name}\n")
        template += "," + encode_basestring_ascii(name) + ":%s"
        guard, text = (part.format(v=v) for part in _JSON_FIELDS[kind])
        if optional:
            guard = f"({v} is None or {guard})"
            text = f"('null' if {v} is None else {text})"
        guards.append(guard)
        texts.append(text)
    source = (f"def line(event):\n{''.join(reads)}"
              f"    if {' and '.join(guards)}:\n"
              f"        return _TEMPLATE % ({', '.join(texts)},)\n"
              f"    return _json_line(event)\n")
    namespace: Dict[str, Any] = {
        "_TEMPLATE": template + "}\n",
        "_quote": encode_basestring_ascii, "_json_line": _json_line}
    exec(compile(source, f"<jsonl line of {cls.__name__}>", "exec"),
         namespace)
    line: Callable[[TelemetryEvent], str] = namespace["line"]
    return line


#: The compiled JSONL line of every event class.
_JSONL_LINES: Dict[type, Callable[[TelemetryEvent], str]] = {
    cls: _compile_jsonl_line(cls) for cls in EVENT_TYPES}


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
        fh = self._fh
        if fh is None:
            fh = self._handle()  # raises: the writer is closed
        fh.write(_JSONL_LINES.get(type(event), _json_line)(event))
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


def _parse_bool(raw: str) -> bool:
    if raw not in ("True", "False"):
        raise ValueError(f"invalid bool {raw!r}")
    return raw == "True"


_CellParser = Callable[[str], object]

#: Annotated field type -> parser of its CSV cell text.
_CELL_PARSERS: Dict[object, _CellParser] = {
    bool: _parse_bool, int: int, float: float, str: str}


@lru_cache(maxsize=None)
def _csv_cell_parsers(
        cls: Type[TelemetryEvent]) -> Tuple[Tuple[str, _CellParser], ...]:
    """``(field, parser)`` pairs for a ``cls`` row, ``topic`` first.

    An ``Optional[T]`` field's cell parses as ``T``.
    """
    return tuple((name, _CELL_PARSERS[kind])
                 for name, kind, _ in _field_types(cls))


def _from_csv_row(row: Dict[Any, Any]) -> Dict[str, object]:
    """The event dict of one CSV row; empty cells are left out."""
    if None in row or None in row.values():
        raise ValueError("row does not match the header's cell count")
    out: Dict[str, object] = {}
    for name, parse in _csv_cell_parsers(event_type(row.get("topic"))):
        raw = row.get(name)
        if raw:
            try:
                out[name] = parse(raw)
            except ValueError:
                raise ValueError(f"bad {name} cell {raw!r}") from None
    return out


def _from_jsonl_line(line: str) -> Dict[str, object]:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"invalid JSON ({exc.msg} at char {exc.pos})") from None
    if not isinstance(data, dict):
        raise ValueError("line is not a JSON object")
    event_type(data.get("topic"))
    return data


def read_trace(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load a JSONL or CSV trace file back into a list of event dicts.

    A torn line, a malformed cell or an unknown topic raises
    ``ValueError`` naming the file and line.
    """
    path = Path(path)
    events: List[Dict[str, object]] = []
    line = 0
    try:
        if path.suffix.lower() == ".csv":
            with path.open(newline="") as fh:
                reader = csv.DictReader(fh)
                for row in reader:
                    line = reader.line_num
                    events.append(_from_csv_row(row))
        else:
            with path.open() as fh:
                for line, text in enumerate(fh, 1):
                    if text.strip():
                        events.append(_from_jsonl_line(text))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}:{line}: {exc}") from None
    return events
