"""The two-pass lint engine: pragmas, per-module pass, project pass.

Pass 1 (:class:`~repro.checks.project.ProjectModel`) parses every file
under the linted paths and builds the cross-module picture; pass 2 runs
the per-module :data:`~repro.checks.rules.NODE_RULES` with that model in
their context, then the whole-project
:data:`~repro.checks.rules.PROJECT_RULES` against the model itself.
:func:`lint_source` still works on a lone snippet — node rules degrade
to single-module evidence and project rules are skipped.

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

from repro.checks.project import ProjectModel, is_sim_module, module_name_for
from repro.checks.rules import NODE_RULES, PROJECT_RULES, RULES, RULES_BY_ID
from repro.checks.rules.base import Finding, RuleContext

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
    model: Optional[ProjectModel] = None,
    module_name: Optional[str] = None,
) -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings.

    ``sim_module`` overrides the path-based classification (used by unit
    tests to exercise the sim-only rules on snippets).  When
    :func:`lint_paths` calls this it passes the pass-1 ``model`` so
    model-aware node rules see the whole project; standalone calls lint
    with single-module evidence only.
    """
    tree = ast.parse(source, filename=path)
    sim = is_sim_module(path) if sim_module is None else sim_module
    pragmas, unknown = parse_pragmas(source)
    context = RuleContext(path=path, module=module_name, sim=sim,
                          model=model)
    findings: List[Finding] = list(_pragma_findings(pragmas, unknown, path))
    for rule_cls in NODE_RULES:
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
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        else:
            out.append(path)
    return out


def _project_findings(model: ProjectModel,
                      pragma_cache: Dict[str, Dict[int, Set[str]]],
                      ) -> List[Finding]:
    """Run the whole-project rules, honouring per-file pragmas.

    A project rule may report into a file outside the linted set
    (e.g. API002 reports at the import line of an example); pragmas for
    such files are parsed on demand.
    """
    findings: List[Finding] = []
    for rule_cls in PROJECT_RULES:
        for finding in rule_cls().check_project(model):
            pragmas = pragma_cache.get(finding.path)
            if pragmas is None:
                info = model.by_path.get(finding.path)
                if info is not None:
                    source = info.source
                else:
                    try:
                        source = pathlib.Path(finding.path).read_text(
                            encoding="utf-8")
                    except OSError:
                        source = ""
                pragmas, _ = parse_pragmas(source)
                pragma_cache[finding.path] = pragmas
            if not _suppressed(pragmas, finding.line, finding.rule):
                findings.append(finding)
    return findings


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Two-pass lint of every ``.py`` file under ``paths``.

    Pass 1 builds the :class:`ProjectModel` over all files; pass 2 runs
    the node rules per module (model in context) and the project rules
    once.  Findings come back in (path, line, col, rule) order.
    """
    files = iter_python_files(paths)
    model = ProjectModel.build(files)
    findings: List[Finding] = []
    pragma_cache: Dict[str, Dict[int, Set[str]]] = {}
    for info in model.modules():
        module_findings = lint_source(info.source, info.path,
                                      model=model, module_name=info.name)
        pragmas, _ = parse_pragmas(info.source)
        pragma_cache[info.path] = pragmas
        findings.extend(module_findings)
    findings.extend(_project_findings(model, pragma_cache))
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
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "parse_pragmas",
]
