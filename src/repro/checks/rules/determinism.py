"""Determinism rules: injected RNG, simulated time, ordered iteration."""

from __future__ import annotations

import ast
from typing import Sequence, Tuple

from repro.checks.rules.base import (
    Rule,
    attr_call,
    terminal_name,
)


class Det001(Rule):
    """DET001: call into the module-level ``random`` API.

    ``random.random()``, ``random.seed()``, ``random.choice()`` etc.
    draw from (or reseed) the interpreter-global Mersenne Twister, whose
    state is shared across every caller in the process — one extra draw
    anywhere silently perturbs every subsequent result, and worker
    processes each see a differently seeded instance.  All randomness
    must flow through an injected ``random.Random`` (usually a named
    stream from :class:`repro.des.rng.RandomStreams`).  Constructing
    ``random.Random(seed)`` instances is the sanctioned pattern and is
    not flagged here (but see SUB001 for simulation packages).
    """

    rule_id = "DET001"
    _ALLOWED = frozenset({"Random", "SystemRandom"})

    def visit_Call(self, node: ast.Call) -> None:
        target = attr_call(node)
        if (target is not None and target[0] == "random"
                and target[1] not in self._ALLOWED):
            self.report(
                node,
                f"call to module-level random.{target[1]}(); draw from an "
                "injected random.Random stream instead")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            bad = [a.name for a in node.names
                   if a.name not in self._ALLOWED]
            if bad:
                self.report(
                    node,
                    f"importing {', '.join(bad)} from random binds the "
                    "process-global RNG; inject a random.Random instead")
        self.generic_visit(node)


class Det002(Rule):
    """DET002: wall-clock read inside a simulation module.

    Simulation code (``core/``, ``des/``, ``network/``, ``contact/``,
    ``obs/`` and the enrolled harness modules) must tell time
    exclusively through ``scheduler.now``; any ``time.time()`` /
    ``time.perf_counter()`` / ``datetime.now()`` read couples behaviour
    to the host machine and breaks seed reproducibility.  Wall-clock
    *metrics* (e.g. measuring a run's real duration, never fed back into
    simulation state) are the one legitimate use and carry a justified
    ``# lint: disable=DET002``.
    """

    rule_id = "DET002"
    sim_only = True
    _TIME_ATTRS = frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    })
    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    def visit_Call(self, node: ast.Call) -> None:
        target = attr_call(node)
        if target is not None:
            base, attr = target
            if base == "time" and attr in self._TIME_ATTRS:
                self.report(node, f"wall-clock read time.{attr}() in "
                                  "simulation code; use scheduler.now")
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in self._DATETIME_ATTRS
                and terminal_name(func.value) in ("datetime", "date")):
            self.report(node, f"wall-clock read {ast.unparse(func)}() in "
                              "simulation code; use scheduler.now")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            bad = [a.name for a in node.names if a.name in self._TIME_ATTRS]
            if bad:
                self.report(node, f"importing {', '.join(bad)} from time "
                                  "into simulation code; use scheduler.now")
        self.generic_visit(node)


class Det003(Rule):
    """DET003: iterating an unordered ``set`` in a simulation module.

    ``set`` iteration order depends on element hashes (and, for str
    keys, on ``PYTHONHASHSEED``), so a loop over a set that feeds event
    scheduling or RNG draws can reorder those draws between runs or
    interpreter versions.  Iterate ``sorted(the_set)`` (or keep a list /
    dict, which preserve insertion order) instead.  Flagged forms: a
    ``for`` loop or comprehension whose iterable is a ``set(...)`` /
    ``frozenset(...)`` call, a set literal or comprehension, or a set
    expression combined with the ``- & | ^`` operators.
    """

    rule_id = "DET003"
    sim_only = True
    _SET_OPS: Tuple[type, ...] = (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_OPS):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_iter(self, node: ast.AST, iterable: ast.expr) -> None:
        if self._is_set_expr(iterable):
            self.report(node, "iteration over an unordered set in "
                              "simulation code; iterate sorted(...) instead")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node: ast.AST,
                    generators: Sequence[ast.comprehension]) -> None:
        for gen in generators:
            self._check_iter(node, gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comp(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, node.generators)
