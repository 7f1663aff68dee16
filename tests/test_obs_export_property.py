"""Property tests (Hypothesis): trace writers against reference encoders.

The JSONL writer fills a template compiled per event class (json's
one-shot C encoder for values its type checks do not admit) and the CSV
writer uses ``csv.writer`` and a per-class column layout.  The
references below are the encoders they replaced, kept here verbatim:
``json.dump`` (pure-Python ``iterencode``) and ``csv.DictWriter``.  For
every event class and drawn field values, the bytes must agree, and
``read_trace`` must give back ``event_to_dict(event)``.  The schema has
one source, ``EVENT_TYPES``, and ``event_from_dict`` inverts
``event_to_dict`` directly and through each trace format.

A second JSONL strategy draws values an event's annotations do not
promise (NaN, infinities, huge ints, a bool in an int field, ``None``
in a non-Optional field, numpy scalars, control characters): the line
must still equal the reference, and a value json cannot encode must
raise ``TypeError`` as the reference does.
"""

import csv
import dataclasses
import io
import json
import math
import tempfile
import typing
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.bus import TOPICS
from repro.obs.events import (
    EVENT_TYPES,
    TelemetryEvent,
    event_from_dict,
    event_to_dict,
)
from repro.obs.export import (
    CSV_COLUMNS,
    CsvTraceWriter,
    JsonlTraceWriter,
    read_trace,
)

#: Every concrete event class, one per bus topic.
EVENT_CLASSES = sorted(TelemetryEvent.__subclasses__(),
                       key=lambda cls: cls.topic)

ids = st.integers(min_value=-1, max_value=2**40)

FIELD_STRATEGIES = {
    float: st.floats(allow_nan=False, allow_infinity=False),
    int: ids,
    bool: st.booleans(),
    str: st.text(max_size=12),
    typing.Optional[int]: st.none() | ids,
}


def _event_strategy(cls, strategies=FIELD_STRATEGIES):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{f.name: strategies[hints[f.name]]
                             for f in dataclasses.fields(cls)})


events = st.one_of([_event_strategy(cls) for cls in EVENT_CLASSES])

#: An empty CSV cell reads back as an absent field, so CSV round trips
#: draw non-empty strings.
csv_events = st.one_of([
    _event_strategy(cls, {**FIELD_STRATEGIES, str: st.text(min_size=1,
                                                            max_size=12)})
    for cls in EVENT_CLASSES])


big_ints = (st.integers(min_value=2**63, max_value=2**80)
            | st.integers(min_value=-2**80, max_value=-2**63 - 1))

#: Per annotation, values outside what the annotation promises, mixed
#: with ones inside it; every non-Optional field may also draw ``None``.
OFF_TYPE_STRATEGIES = {
    float: (st.floats()
            | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
            | ids | big_ints
            | st.floats().map(numpy.float64)
            | st.none()),
    int: ids | big_ints | st.booleans() | st.none(),
    bool: st.booleans() | st.none(),
    str: (st.text(max_size=12)
          | st.sampled_from(["\x00\x1f\n\t\"\\", "caf\u00e9 \u2603",
                             "\u2028\U0001f600", "\x7f"])
          | st.none()),
    typing.Optional[int]: st.none() | ids | big_ints | st.booleans(),
}

off_type_events = st.one_of([_event_strategy(cls, OFF_TYPE_STRATEGIES)
                             for cls in EVENT_CLASSES])

#: ``(class, field)`` for every int-annotated field, Optional or not.
INT_FIELDS = [
    (cls, name) for cls in EVENT_CLASSES
    for name, hint in typing.get_type_hints(cls).items()
    if hint in (int, typing.Optional[int])]

#: An in-annotation value per field type, to fill the fields a test
#: does not vary.
PLAIN_VALUES = {float: 1.5, int: 3, bool: True, str: "x",
                typing.Optional[int]: None}


def reference_jsonl_line(event):
    """The line the JSONL writer produced before the C encoder."""
    fh = io.StringIO()
    json.dump(event_to_dict(event), fh, separators=(",", ":"))
    fh.write("\n")
    return fh.getvalue()


def reference_csv_row(event):
    """The row the CSV writer produced before ``csv.writer``."""
    fh = io.StringIO(newline="")
    csv.DictWriter(fh, fieldnames=CSV_COLUMNS).writerow(event_to_dict(event))
    return fh.getvalue()


def _written(writer_cls, suffix, event):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"trace{suffix}"
        with writer_cls(path) as writer:
            writer.write(event)
        with path.open(newline="") as fh:
            return fh.read(), read_trace(path)


def test_every_topic_has_an_event_class():
    assert {cls.topic for cls in EVENT_CLASSES} == set(TOPICS)


def test_event_types_lists_every_event_class():
    assert set(EVENT_TYPES) == set(TelemetryEvent.__subclasses__())
    assert len(EVENT_TYPES) == len(set(EVENT_TYPES))


@settings(max_examples=300, deadline=None)
@given(events)
def test_event_from_dict_inverts_event_to_dict(event):
    assert event_from_dict(event_to_dict(event)) == event
    _, read_back = _written(JsonlTraceWriter, ".jsonl", event)
    assert [event_from_dict(data) for data in read_back] == [event]


@settings(max_examples=300, deadline=None)
@given(csv_events)
def test_event_from_dict_inverts_a_csv_round_trip(event):
    _, read_back = _written(CsvTraceWriter, ".csv", event)
    assert [event_from_dict(data) for data in read_back] == [event]


@settings(max_examples=300, deadline=None)
@given(events)
def test_jsonl_line_matches_json_dump_reference(event):
    text, read_back = _written(JsonlTraceWriter, ".jsonl", event)
    assert text == reference_jsonl_line(event)
    assert read_back == [event_to_dict(event)]


@settings(max_examples=300, deadline=None)
@given(events)
def test_csv_row_matches_dict_writer_reference(event):
    text, _ = _written(CsvTraceWriter, ".csv", event)
    header, row = text.split("\r\n", 1)
    assert header == ",".join(CSV_COLUMNS)
    assert row == reference_csv_row(event)


@settings(max_examples=500, deadline=None)
@given(off_type_events)
def test_jsonl_line_matches_reference_for_off_type_values(event):
    text, _ = _written(JsonlTraceWriter, ".jsonl", event)
    assert text == reference_jsonl_line(event)


@pytest.mark.parametrize(
    "cls, name", INT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in INT_FIELDS])
def test_jsonl_rejects_a_numpy_int_as_the_reference_does(cls, name, tmp_path):
    hints = typing.get_type_hints(cls)
    event = cls(**{f.name: (numpy.int64(3) if f.name == name
                            else PLAIN_VALUES[hints[f.name]])
                   for f in dataclasses.fields(cls)})
    with pytest.raises(TypeError):
        reference_jsonl_line(event)
    path = tmp_path / "trace.jsonl"
    with JsonlTraceWriter(path) as writer:
        with pytest.raises(TypeError):
            writer.write(event)
        assert writer.events_written == 0
    assert path.read_text() == ""
