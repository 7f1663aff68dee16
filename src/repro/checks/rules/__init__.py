"""Rule registry: one module per rule family.

Every rule is a per-module AST visitor; ``RULES`` is the
reporting-ordered registry the engine runs and the CLI and docs
enumerate.
"""

from __future__ import annotations

import ast
from typing import Dict, Tuple, Type

from repro.checks.rules.base import (
    FaultScopeRule,
    Finding,
    Rule,
    RuleContext,
)
from repro.checks.rules.determinism import Det001, Det002, Det003
from repro.checks.rules.floats import Flt001
from repro.checks.rules.mutables import Mut001
from repro.checks.rules.registry import Reg001
from repro.checks.rules.scheduling import Sch001
from repro.checks.rules.substreams import Sub001
from repro.checks.rules.telemetry import Obs001


class Prg001(Rule):
    """PRG001: invalid ``# lint: disable=`` pragma.

    A pragma naming a rule id that does not exist (``DET0003`` for
    ``DET003``, say) suppresses nothing today and silently rots: when
    the intended rule later fires on that line, the finding surprises
    everyone and the stale pragma misleads readers.  The engine
    validates every pragma token against the registry while parsing
    comments, so a typo is itself a finding.  (This entry exists for
    the catalogue; the engine emits PRG001 directly, not via a
    visitor.)
    """

    rule_id = "PRG001"

    def visit_Module(self, node: ast.Module) -> None:
        """No-op: PRG001 findings come from the engine's pragma parser."""
        return None


#: Every rule, in reporting order (``--list-rules``, docs).
RULES: Tuple[Type[Rule], ...] = (
    Det001, Det002, Det003, Flt001, Mut001, Reg001, Sub001, Sch001, Obs001,
    Prg001,
)

#: Rule id -> rule class, for pragma validation.
RULES_BY_ID: Dict[str, Type[Rule]] = {rule.rule_id: rule for rule in RULES}

__all__ = [
    "Det001",
    "Det002",
    "Det003",
    "FaultScopeRule",
    "Finding",
    "Flt001",
    "Mut001",
    "Obs001",
    "Prg001",
    "RULES",
    "RULES_BY_ID",
    "Reg001",
    "Rule",
    "RuleContext",
    "Sch001",
    "Sub001",
]
