"""The lint engine: one pass per module, with line pragmas.

:func:`lint_paths` runs :func:`lint_source` on every ``.py`` file under
the linted paths; each module is parsed and checked on its own against
the :data:`~repro.checks.rules.RULES` registry, so a lone snippet is
linted exactly as a file in the tree would be.  Contracts that span
modules (the ``repro.api`` facade, the layering between packages) are
held by tests, which may import the project (docs/CHECKS.md).

Suppression is per line: ``# lint: disable=RULEID[, RULEID...]``
comments (parsed with :mod:`tokenize`, so pragma-shaped text inside
strings and docstrings is ignored) silence the named rules on that
line.  A pragma naming an unknown rule id is itself a finding (PRG001)
— see :class:`repro.checks.rules.Prg001`.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.checks.rules import RULES, RULES_BY_ID
from repro.checks.rules.base import Finding, RuleContext

#: Packages whose modules form the deterministic simulation core; the
#: sim-only rules (DET002/DET003/SUB001) apply only inside these.
#: ``scenario`` is enrolled because plan parsing, plan-driven mobility,
#: and the preset registry all feed seeded runs: any nondeterminism
#: there breaks byte-identical replay.  ``protocols`` is enrolled
#: because its agents/policies run inside the seeded event loop, and
#: ``radio``, ``mobility``, ``energy``, ``traffic`` and ``metrics``
#: because they are the layers that loop drives and measures.
SIM_PACKAGES = frozenset({"core", "des", "network", "contact", "obs",
                          "scenario", "protocols", "radio", "mobility",
                          "energy", "traffic", "metrics"})

#: Individual ``(package, module)`` pairs outside :data:`SIM_PACKAGES`
#: that still carry the bit-for-bit reproducibility guarantee and so get
#: the sim-only rules.  ``harness/faults.py`` assembles seeded fault
#: campaigns, ``harness/serialize.py`` and ``harness/runner.py`` carry
#: the serial-vs-parallel byte-identical guarantee (configs and results
#: must round-trip losslessly and in deterministic order).
SIM_MODULES = frozenset({
    ("harness", "faults"),
    ("harness", "runner"),
    ("harness", "serialize"),
})


def is_sim_module(path: str) -> bool:
    """Whether ``path`` is deterministic-simulation code.

    True inside any :data:`SIM_PACKAGES` directory, or for one of the
    individually enrolled :data:`SIM_MODULES`.
    """
    pure = pathlib.PurePath(path)
    parts = pure.parts
    if any(part in SIM_PACKAGES for part in parts[:-1]):
        return True
    return len(parts) >= 2 and (parts[-2], pure.stem) in SIM_MODULES


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module name of ``path``, walking up ``__init__.py`` chains.

    ``src/repro/core/queue.py`` -> ``repro.core.queue``;
    a file outside any package keeps its bare stem.
    """
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem

#: Matches one pragma inside a comment; the id list stops at the first
#: token that is not a rule id, so trailing justification text
#: (``# lint: disable=DET002 (wall metric)``) is not swallowed.
_PRAGMA_RE = re.compile(
    r"lint:\s*disable=\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")

#: Sentinel stored in a line's suppression set by ``disable=all``.
_ALL = "ALL"


def parse_pragmas(
    source: str,
) -> Tuple[Dict[int, Set[str]], List[Tuple[int, str]]]:
    """Extract suppression pragmas from a module's comments.

    Returns ``(by_line, unknown)``: ``by_line`` maps a line number to
    the set of upper-cased rule ids suppressed there (plus ``"ALL"``
    for ``disable=all``); ``unknown`` lists ``(line, token)`` pairs for
    pragma tokens that name no registered rule — the engine turns those
    into PRG001 findings.

    Only real comment tokens are scanned (via :mod:`tokenize`), so a
    docstring *describing* the pragma syntax never parses as one.  A
    comment may carry several pragmas; a line may collect ids from a
    trailing comment regardless of code before it.
    """
    by_line: Dict[int, Set[str]] = {}
    unknown: List[Tuple[int, str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return by_line, unknown
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        line = token.start[0]
        for match in _PRAGMA_RE.finditer(token.string):
            for raw in match.group(1).split(","):
                rule_id = raw.strip().upper()
                if not rule_id:
                    continue
                if rule_id == _ALL:
                    by_line.setdefault(line, set()).add(_ALL)
                elif rule_id in RULES_BY_ID:
                    by_line.setdefault(line, set()).add(rule_id)
                else:
                    unknown.append((line, raw.strip()))
    return by_line, unknown


def _suppressed(pragmas: Dict[int, Set[str]], line: int,
                rule_id: str) -> bool:
    ids = pragmas.get(line)
    return ids is not None and (_ALL in ids or rule_id.upper() in ids)


def _pragma_findings(pragmas: Dict[int, Set[str]],
                     unknown: List[Tuple[int, str]],
                     path: str) -> List[Finding]:
    """PRG001 findings for unknown pragma tokens (itself suppressible)."""
    return [
        Finding(path, line, 0, "PRG001",
                f"pragma disables unknown rule {token!r}; known rules: "
                "run 'dftmsn lint --list-rules'")
        for line, token in unknown
        if not _suppressed(pragmas, line, "PRG001")
    ]


def lint_source(
    source: str,
    path: str = "<string>",
    sim_module: Optional[bool] = None,
    module_name: Optional[str] = None,
) -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings.

    ``sim_module`` overrides the path-based classification (used by unit
    tests to exercise the sim-only rules on snippets); ``module_name``
    is the dotted name :func:`lint_paths` derives from the path.
    """
    tree = ast.parse(source, filename=path)
    sim = is_sim_module(path) if sim_module is None else sim_module
    pragmas, unknown = parse_pragmas(source)
    context = RuleContext(path=path, module=module_name, sim=sim)
    findings: List[Finding] = list(_pragma_findings(pragmas, unknown, path))
    for rule_cls in RULES:
        if rule_cls.sim_only and not sim:
            continue
        rule = rule_cls(context)
        for line, col, message in rule.check(tree):
            if not _suppressed(pragmas, line, rule_cls.rule_id):
                findings.append(Finding(path, line, col,
                                        rule_cls.rule_id, message))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Iterable[str]) -> List[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    A file reached through two of ``paths`` is listed once.
    """
    out: List[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        else:
            out.append(path)
    return list(dict.fromkeys(out))


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``.

    Findings come back in (path, line, col, rule) order.
    """
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_source(path.read_text(encoding="utf-8"),
                                    str(path),
                                    module_name=module_name_for(path)))
    findings.sort(key=lambda f: f.sort_key())
    return findings


def describe_rules() -> str:
    """Human-readable catalogue of every rule (``--list-rules``)."""
    blocks = []
    for rule_cls in RULES:
        doc = (rule_cls.__doc__ or "").strip()
        scope = "simulation packages only" if rule_cls.sim_only else "all code"
        blocks.append(f"{rule_cls.rule_id} ({scope})\n{doc}")
    return "\n\n".join(blocks)


__all__ = [
    "describe_rules",
    "is_sim_module",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "parse_pragmas",
]
