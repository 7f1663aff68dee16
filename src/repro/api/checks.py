"""``repro.api.checks`` — the project's static-analysis engine.

Programmatic access to the lint behind ``dftmsn lint``:
:func:`lint_paths` / :func:`lint_source` run the rule set and return
:class:`Finding` records.  See ``docs/CHECKS.md``.

Every name here is also importable from flat ``repro.api`` (the
compatibility surface); see ``docs/API.md`` for the deprecation policy.
"""

from __future__ import annotations

from repro.checks.engine import lint_paths, lint_source
from repro.checks.rules.base import Finding

__all__ = [
    "Finding",
    "lint_paths",
    "lint_source",
]
