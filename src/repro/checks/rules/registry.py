"""Protocol-registry rule (REG001)."""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import FrozenSet, Iterable, Optional

from repro.checks.rules.base import Rule, terminal_name


def _registered_protocol_names() -> FrozenSet[str]:
    """The live registry's names, resolved at lint time.

    This imports :mod:`repro.protocols` (and the simulator packages it
    builds on) the first time REG001 checks a literal: the one place the
    lint imports project code.  The import is deferred so that importing
    the checks engine alone does not.
    """
    from repro.protocols import protocol_names

    return frozenset(protocol_names())


class Reg001(Rule):
    """REG001: protocol-name string table outside the registry.

    A dict/set/tuple literal enumerating registered protocol names
    (``{"opt": ..., "zbr": ...}``, ``("opt", "epidemic", "direct")``)
    is a shadow copy of the :mod:`repro.protocols` registry: it goes
    stale the moment a protocol is registered or renamed, which is
    exactly the drift the registry exists to end.  Derive the roster
    instead — ``protocol_names()`` / ``contact_policy_names()`` /
    ``names_tagged(tag)`` for name lists, ``crossval_pairs()`` for the
    packet/contact pairing.  Modules under ``repro/protocols/`` are
    exempt: the registry itself must spell the names out once.
    """

    rule_id = "REG001"
    #: A single name is a protocol *choice*; two or more are a table.
    _MIN_NAMES = 2

    def _exempt(self) -> bool:
        module = self.context.module
        if module is not None:
            return module == "repro.protocols" or module.startswith(
                "repro.protocols.")
        return "protocols" in PurePath(self.context.path).parts[:-1]

    def _table_names(self, nodes: Iterable[Optional[ast.AST]]) -> list:
        registered = _registered_protocol_names()
        return [node.value for node in nodes
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in registered]

    def _flag(self, node: ast.AST, names: list) -> None:
        if len(names) < self._MIN_NAMES or self._exempt():
            return
        listed = ", ".join(sorted(set(names)))
        self.report(node, f"protocol-name table ({listed}) shadows the "
                          "repro.protocols registry; derive it "
                          "(protocol_names()/names_tagged()/"
                          "crossval_pairs()) instead")

    def visit_Dict(self, node: ast.Dict) -> None:
        self._flag(node, self._table_names(node.keys))
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._flag(node, self._table_names(node.elts))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # Set literals inside the call are handled by visit_Set.
        if terminal_name(node.func) in ("set", "frozenset") and node.args:
            seq = node.args[0]
            if isinstance(seq, (ast.List, ast.Tuple)):
                self._flag(node, self._table_names(seq.elts))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Constant rosters: UPPER_CASE = ("opt", "epidemic", ...).
        constant_target = any(
            isinstance(t, ast.Name) and t.id.isupper() for t in node.targets)
        if constant_target and isinstance(node.value, (ast.List, ast.Tuple)):
            self._flag(node.value, self._table_names(node.value.elts))
        self.generic_visit(node)
