"""Run checkpoints: stable run keys and an append-only JSONL store.

Configs and results become plain dicts through :mod:`repro.codec` (see
``runner.JOB_KINDS``).  :class:`Checkpoint` stores completed runs as JSON
lines keyed by a stable hash of the run description (:func:`run_key`),
so an interrupted sweep resumes without re-running completed points.
Floats survive the JSON round trip exactly (``json`` uses shortest-repr
encoding), which is what makes checkpointed and fresh runs
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Optional


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
