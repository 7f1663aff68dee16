"""Byte-identical contact-level results against committed goldens.

``tests/data/contact_goldens.json`` pins every contact policy's seeded
run on the paper topology and one satellite-pass plan replay: the
``ContactSimResult`` fields, the delay list, and every node's queue
ledger, transfer counters, buffer and xi state.  It also pins the bytes
of one traced FAD run.  A change to the exchange loop that is meant to
be result-neutral must keep them all.
"""

import json

import pytest

from tests.data.regen_contact_goldens import (
    GOLDEN_PATH,
    golden_configs,
    golden_entry,
    trace_sha256,
)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_seeded_contact_run_matches_golden(name, goldens):
    entry = golden_entry(golden_configs()[name])
    assert entry["result"] == goldens[name]["result"]
    assert entry["delays_sha256"] == goldens[name]["delays_sha256"]
    assert entry["nodes_sha256"] == goldens[name]["nodes_sha256"]


def test_traced_fad_run_bytes_match_golden(tmp_path, goldens):
    assert trace_sha256(tmp_path) == goldens["trace_sha256"]
