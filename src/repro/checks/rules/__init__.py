"""Rule registry: one module per rule family, two rule shapes.

``NODE_RULES`` run per module (pass 2 AST visitors, optionally
consulting the pass-1 model through their context); ``PROJECT_RULES``
run once against the whole :class:`~repro.checks.project.ProjectModel`.
``RULES`` is the combined, reporting-ordered registry the CLI and docs
enumerate.
"""

from __future__ import annotations

import ast
from typing import Dict, Tuple, Type, Union

from repro.checks.rules.base import (
    FaultScopeRule,
    Finding,
    ProjectRule,
    Rule,
    RuleContext,
)
from repro.checks.rules.determinism import Det001, Det002, Det003
from repro.checks.rules.facade import Api001, Api002, Api003
from repro.checks.rules.floats import Flt001
from repro.checks.rules.layering import Arch001, LAYER_CONTRACTS
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


#: Per-module rules, in reporting order.
NODE_RULES: Tuple[Type[Rule], ...] = (
    Det001, Det002, Det003, Flt001, Mut001, Reg001, Sub001, Sch001, Obs001,
    Prg001,
)

#: Whole-project rules, in reporting order.
PROJECT_RULES: Tuple[Type[ProjectRule], ...] = (
    Api001, Api002, Api003, Arch001,
)

#: The full registry (``--list-rules``, docs, back-compat ``RULES``).
RULES: Tuple[Union[Type[Rule], Type[ProjectRule]], ...] = (
    NODE_RULES + PROJECT_RULES
)

#: Rule id -> rule class, for pragma validation.
RULES_BY_ID: Dict[str, Union[Type[Rule], Type[ProjectRule]]] = {
    rule.rule_id: rule for rule in RULES
}

__all__ = [
    "Api001",
    "Api002",
    "Api003",
    "Arch001",
    "Det001",
    "Det002",
    "Det003",
    "FaultScopeRule",
    "Finding",
    "Flt001",
    "LAYER_CONTRACTS",
    "Mut001",
    "NODE_RULES",
    "Obs001",
    "PROJECT_RULES",
    "Prg001",
    "ProjectRule",
    "RULES",
    "RULES_BY_ID",
    "Reg001",
    "Rule",
    "RuleContext",
    "Sch001",
    "Sub001",
]
