"""Shared plumbing of the lint rules: findings and rule bases.

Every rule is a :class:`Rule`, a per-module AST visitor: the engine
runs one instance per linted module, with what it knows about that
module in a :class:`RuleContext` (see ``docs/CHECKS.md``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Finding:
    """One lint violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """``path:line:col: RULE message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable reporting order."""
        return (self.path, self.line, self.col, self.rule)


@dataclass
class RuleContext:
    """What a per-module rule knows about the module it is visiting."""

    path: str = "<string>"
    #: Dotted module name when derivable from the path (else ``None``).
    module: Optional[str] = None
    #: Whether the module carries the deterministic-simulation contract.
    sim: bool = False


#: One raw per-module violation: (line, col, message).
RawFinding = Tuple[int, int, str]


class Rule(ast.NodeVisitor):
    """Base per-module lint rule: an AST visitor accumulating findings.

    Subclasses set :attr:`rule_id`, :attr:`sim_only` and override the
    ``visit_*`` hooks, calling :meth:`report` on violations.  The class
    docstring of each rule is its user-facing documentation (shown by
    ``dftmsn lint --list-rules``).
    """

    rule_id: str = ""
    #: Whether the rule only applies inside simulation modules (the
    #: ``SIM_PACKAGES`` / ``SIM_MODULES`` enrollment in
    #: :mod:`repro.checks.engine`).
    sim_only: bool = False

    def __init__(self, context: Optional[RuleContext] = None) -> None:
        self.context = context if context is not None else RuleContext()
        self.found: List[RawFinding] = []

    def report(self, node: ast.AST, message: str) -> None:
        """Record one violation at ``node``'s location."""
        self.found.append(
            (getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
             message))

    def check(self, tree: ast.AST) -> List[RawFinding]:
        """Run this rule over a parsed module."""
        self.found = []
        self.visit(tree)
        return self.found


# ----------------------------------------------------------------------
# small AST helpers shared by several rules
# ----------------------------------------------------------------------
def attr_call(node: ast.Call) -> Optional[Tuple[str, str]]:
    """``(base_name, attr)`` for a ``base.attr(...)`` call, else None."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id, func.attr
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


@dataclass
class _ClassScope:
    """One entry of a class-nesting stack kept by scope-aware rules."""

    name: str
    is_fault_model: bool = False
    extra: List[str] = field(default_factory=list)


class FaultScopeRule(Rule):
    """A rule that needs to know when it is inside a ``FaultModel`` subclass.

    Only a *direct* base literally named ``FaultModel`` is recognized;
    ``tests/test_checks_rules.py`` asserts that every fault model in
    ``repro`` names it so.
    """

    def __init__(self, context: Optional[RuleContext] = None) -> None:
        super().__init__(context)
        self._class_stack: List[_ClassScope] = []

    def _bases_mark_fault_model(self, node: ast.ClassDef) -> bool:
        return any(terminal_name(b) == "FaultModel" for b in node.bases)

    def in_fault_model(self) -> bool:
        """Whether the visitor currently sits inside a fault-model class."""
        return any(scope.is_fault_model for scope in self._class_stack)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(
            _ClassScope(node.name, self._bases_mark_fault_model(node)))
        self.generic_visit(node)
        self._class_stack.pop()
