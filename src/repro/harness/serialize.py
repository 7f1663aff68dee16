"""Lossless serialization of configs and results, plus run checkpoints.

The runner subsystem (:mod:`repro.harness.runner`) dispatches simulation
runs to worker processes and persists completed runs to disk, so every
run description and run outcome needs an exact plain-data round trip:

* :class:`~repro.network.config.SimulationConfig` /
  :class:`~repro.core.params.ProtocolParameters` carry their own
  ``to_dict``/``from_dict`` (the agent class is re-resolved from the
  protocol registry by name — it is never pickled);
* :func:`result_to_dict` / :func:`result_from_dict` round-trip a full
  :class:`~repro.network.simulation.SimulationResult` (unlike
  ``SimulationResult.to_dict``, which is a flat summary view);
* the contact-level equivalents cover
  :class:`~repro.contact.simulator.ContactSimConfig` and
  :class:`~repro.contact.simulator.ContactSimResult`.

:class:`Checkpoint` stores completed runs as JSON lines keyed by a
stable hash of the run description (:func:`run_key`), so an interrupted
sweep resumes without re-running completed points.  Floats survive the
JSON round trip exactly (``json`` uses shortest-repr encoding), which is
what makes checkpointed and fresh runs byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import fields
from typing import Dict, Optional

from repro.contact.simulator import ContactSimConfig, ContactSimResult
from repro.network.config import SimulationConfig
from repro.network.simulation import SimulationResult


# ----------------------------------------------------------------------
# packet-level results
# ----------------------------------------------------------------------
def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    """Full lossless plain-data view of one packet-level run."""
    out: Dict[str, object] = {}
    for f in fields(SimulationResult):
        value = getattr(result, f.name)
        if f.name == "config":
            value = value.to_dict()
        out[f.name] = value
    return out


def result_from_dict(data: Dict[str, object]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict`."""
    payload = dict(data)
    config = payload["config"]
    if not isinstance(config, SimulationConfig):
        payload["config"] = SimulationConfig.from_dict(config)  # type: ignore[arg-type]
    return SimulationResult(**payload)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# contact-level configs and results
# ----------------------------------------------------------------------
def contact_config_to_dict(config: ContactSimConfig) -> Dict[str, object]:
    """Plain-data view of a contact-level config (nested scenario included)."""
    return config.to_dict()


def contact_config_from_dict(data: Dict[str, object]) -> ContactSimConfig:
    """Rebuild a :class:`ContactSimConfig` from its dict view."""
    return ContactSimConfig.from_dict(data)


def contact_result_to_dict(result: ContactSimResult) -> Dict[str, object]:
    """Full lossless plain-data view of one contact-level run."""
    out: Dict[str, object] = {}
    for f in fields(ContactSimResult):
        value = getattr(result, f.name)
        if f.name == "config":
            value = value.to_dict()
        out[f.name] = value
    return out


def contact_result_from_dict(data: Dict[str, object]) -> ContactSimResult:
    """Rebuild a :class:`ContactSimResult` from its dict view."""
    payload = dict(data)
    config = payload["config"]
    if not isinstance(config, ContactSimConfig):
        payload["config"] = contact_config_from_dict(config)  # type: ignore[arg-type]
    return ContactSimResult(**payload)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
def canonical_json(data: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def run_key(kind: str, config_dict: Dict[str, object]) -> str:
    """Stable identity of one run: hash of its kind + full config.

    Any config change (seed included) produces a different key, so a
    checkpoint can never serve a stale result for an edited sweep.
    """
    digest = hashlib.sha256(
        f"{kind}\n{canonical_json(config_dict)}".encode("utf-8"))
    return digest.hexdigest()


class Checkpoint:
    """Append-only JSONL store of completed runs, keyed by :func:`run_key`.

    One line per completed run: ``{"key": ..., "kind": ..., "result":
    ...}``.  Appending (rather than rewriting) makes interruption at any
    point safe — a torn final line is detected and ignored on load, and
    every fully written run survives.  Failures are deliberately *not*
    recorded, so a resumed sweep retries them.
    """

    def __init__(self, path: pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._results: Dict[str, Dict[str, object]] = {}
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from an interrupted write
                self._results[record["key"]] = record["result"]

    def __len__(self) -> int:
        return len(self._results)

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored result dict for ``key``, or None if not completed."""
        return self._results.get(key)

    def put(self, key: str, kind: str, result: Dict[str, object]) -> None:
        """Record one completed run (persisted immediately)."""
        self._results[key] = result
        record = {"key": key, "kind": kind, "result": result}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(canonical_json(record) + "\n")
