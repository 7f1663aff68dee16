"""Lint output formats: text and JSON."""

from __future__ import annotations

import json
import pathlib
from typing import Sequence, Union

from repro.checks.rules.base import Finding


def format_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col: RULE message`` line per finding."""
    return "\n".join(finding.format() for finding in findings)


def format_json(findings: Sequence[Finding]) -> str:
    """Deterministic JSON array of finding objects."""
    payload = [
        {
            "path": pathlib.PurePath(finding.path).as_posix(),
            "line": finding.line,
            "col": finding.col,
            "rule": finding.rule,
            "message": finding.message,
        }
        for finding in findings
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_output(text: str, output: Union[str, pathlib.Path, None]) -> None:
    """Write formatted output to a file, or stdout when ``output`` is None."""
    if output is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        path = pathlib.Path(output)
        path.write_text(text if text.endswith("\n") else text + "\n",
                        encoding="utf-8")


__all__ = [
    "format_json",
    "format_text",
    "write_output",
]
