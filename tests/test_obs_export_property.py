"""Property tests (Hypothesis): trace writers against reference encoders.

The JSONL writer encodes each event with json's one-shot C encoder and
the CSV writer with ``csv.writer`` and a per-class column layout.  The
references below are the encoders they replaced, kept here verbatim:
``json.dump`` (pure-Python ``iterencode``) and ``csv.DictWriter``.  For
every event class and drawn field values, the bytes must agree, and
``read_trace`` must give back ``event_to_dict(event)``.  The schema has
one source, ``EVENT_TYPES``, and ``event_from_dict`` inverts
``event_to_dict`` directly and through each trace format.
"""

import csv
import dataclasses
import io
import json
import tempfile
import typing
from pathlib import Path

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
