"""RNG-substream discipline (SUB001)."""

from __future__ import annotations

import ast
from typing import Optional, Set

from repro.checks.rules.base import (
    Rule,
    RuleContext,
    attr_call,
    terminal_name,
)

#: The one module allowed to construct ``random.Random`` in sim code:
#: the substream factory itself.
_FACTORY_MODULE = "repro.des.rng"


def _has_static_prefix(arg: ast.expr) -> bool:
    """Whether a stream-key expression starts with a literal.

    A plain string literal does, and so does an f-string whose first
    piece is a literal (``f"mac:{nid}"``).  A bare variable,
    concatenation or wholly dynamic f-string does not.
    """
    if isinstance(arg, ast.JoinedStr) and arg.values:
        arg = arg.values[0]
    return isinstance(arg, ast.Constant) and isinstance(arg.value, str)


class Sub001(Rule):
    """SUB001: RNG-substream discipline in simulation code.

    Every stochastic component draws from its own named substream of
    :class:`repro.des.rng.RandomStreams`, so that one component's
    randomness consumption never perturbs another's.  Two things break
    that contract and are flagged inside simulation modules:

    * constructing ``random.Random(...)`` / ``random.SystemRandom(...)``
      directly (only ``repro.des.rng`` — the factory — may), including
      through a ``from random import Random`` alias;
    * calling ``streams.stream(key)`` with a *dynamic* key (a variable,
      concatenation, or f-string without a literal prefix): keys must be
      statically module-bound so the substream map stays auditable.

    That a fault model draws only from its own ``faults:<name>``
    substream is a runtime contract, held by
    ``tests/test_fault_contract.py`` (docs/FAULTS.md).
    """

    rule_id = "SUB001"
    sim_only = True
    _RNG_CLASSES = frozenset({"Random", "SystemRandom"})

    def __init__(self, context: Optional[RuleContext] = None) -> None:
        super().__init__(context)
        self._rng_aliases: Set[str] = set()

    def _in_factory_module(self) -> bool:
        ctx = self.context
        if ctx.module == _FACTORY_MODULE:
            return True
        return ctx.path.replace("\\", "/").endswith("des/rng.py")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name in self._RNG_CLASSES:
                    self._rng_aliases.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _check_rng_construction(self, node: ast.Call) -> None:
        if self._in_factory_module():
            return
        target = attr_call(node)
        constructed = (target is not None and target[0] == "random"
                       and target[1] in self._RNG_CLASSES)
        if (isinstance(node.func, ast.Name)
                and node.func.id in self._rng_aliases):
            constructed = True
        if constructed:
            self.report(
                node,
                "raw random.Random(...) construction in simulation code; "
                "take a named substream from RandomStreams.stream(...) "
                "instead")

    def _check_stream_key(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "stream"):
            return
        # Only calls on something stream-factory-shaped: a receiver whose
        # terminal name mentions "streams" (self.streams, sim.streams, a
        # local named streams).  Keeps unrelated .stream() APIs unflagged.
        receiver = terminal_name(func.value)
        if receiver is None or "streams" not in receiver.lower():
            return
        if node.args and not _has_static_prefix(node.args[0]):
            self.report(
                node,
                "dynamic RNG substream key; use a string literal or an "
                "f-string with a literal 'name:' prefix so the substream "
                "map stays auditable")

    def visit_Call(self, node: ast.Call) -> None:
        self._check_rng_construction(node)
        self._check_stream_key(node)
        self.generic_visit(node)
