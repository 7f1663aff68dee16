"""Telemetry-guard discipline (OBS001)."""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.checks.rules.base import Rule, terminal_name


def _is_busish_name(name: Optional[str]) -> bool:
    return name is not None and (name == "bus" or name == "_bus"
                                 or name.endswith("_bus"))


def _bus_key(node: ast.AST) -> Optional[str]:
    """Stable key of a bus-valued expression (``bus``, ``self._bus``)."""
    if isinstance(node, ast.Name) and _is_busish_name(node.id):
        return node.id
    if isinstance(node, ast.Attribute) and _is_busish_name(node.attr):
        try:
            return ast.unparse(node)
        except Exception:  # pragma: no cover - unparse is total on exprs
            return None
    return None


def _none_compare(node: ast.expr) -> Optional[Tuple[str, bool]]:
    """``(bus_key, is_not)`` for an ``X is [not] None`` comparison."""
    if (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None):
        key = _bus_key(node.left)
        if key is not None:
            if isinstance(node.ops[0], ast.IsNot):
                return key, True
            if isinstance(node.ops[0], ast.Is):
                return key, False
    return None


def _guards_in_test(test: ast.expr) -> Tuple[Set[str], Set[str]]:
    """``(not_none_conjuncts, is_none_disjuncts)`` of an if-test.

    The first set holds inside the if *body* (``if bus is not None and
    ...:``); the second guarantees not-None *after* the statement when
    the body unconditionally exits (``if bus is None or ...: return``).
    """
    single = _none_compare(test)
    if single is not None:
        key, is_not = single
        return ({key}, set()) if is_not else (set(), {key})
    not_none: Set[str] = set()
    is_none: Set[str] = set()
    if isinstance(test, ast.BoolOp):
        for value in test.values:
            inner = _none_compare(value)
            if inner is None:
                continue
            key, is_not = inner
            if isinstance(test.op, ast.And) and is_not:
                not_none.add(key)
            elif isinstance(test.op, ast.Or) and not is_not:
                is_none.add(key)
    return not_none, is_none


def _terminates(body: Sequence[ast.stmt]) -> bool:
    """Whether a block unconditionally leaves the enclosing block."""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


class Obs001(Rule):
    """OBS001: unguarded telemetry emission.

    Telemetry is opt-in: every instrumented layer holds
    ``self._bus: Optional[TelemetryBus]`` and the disabled path must
    stay near-free (docs/OBSERVABILITY.md budgets it far under 3 %).
    Every ``bus.emit(...)`` call must therefore be dominated by a
    ``... is None`` guard on the same bus reference — either wrapped in
    ``if bus is not None:`` or after an early ``if bus is None:
    return``.  An unguarded emit crashes every telemetry-off run (the
    default), precisely the path the test matrix exercises least.

    Recognized bus references: any name or attribute spelled ``bus`` /
    ``_bus`` / ``*_bus``.  Binding a fresh ``TelemetryBus()`` counts as
    a guard (it is provably not None), and a re-assignment of a guarded
    local invalidates its guard.
    """

    rule_id = "OBS001"

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scan_block(node.body, set())

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._scan_block(node.body, set())

    # ------------------------------------------------------------------
    # block walker
    # ------------------------------------------------------------------
    def _scan_block(self, body: Sequence[ast.stmt],
                    guarded: Set[str]) -> None:
        guarded = set(guarded)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested function may run at any later time: its body
                # starts with no inherited guards.
                self._scan_block(stmt.body, set())
                continue
            if isinstance(stmt, ast.ClassDef):
                self._scan_block(stmt.body, set())
                continue
            if isinstance(stmt, ast.If):
                self._check_exprs([stmt.test], guarded)
                not_none, is_none = _guards_in_test(stmt.test)
                self._scan_block(stmt.body, guarded | not_none)
                self._scan_block(stmt.orelse, guarded | is_none)
                if is_none and _terminates(stmt.body):
                    guarded |= is_none
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._check_exprs([stmt.iter], guarded)
                self._scan_block(stmt.body, guarded)
                self._scan_block(stmt.orelse, guarded)
                continue
            if isinstance(stmt, ast.While):
                self._check_exprs([stmt.test], guarded)
                not_none, _ = _guards_in_test(stmt.test)
                self._scan_block(stmt.body, guarded | not_none)
                self._scan_block(stmt.orelse, guarded)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._check_exprs(
                    [item.context_expr for item in stmt.items], guarded)
                self._scan_block(stmt.body, guarded)
                continue
            if isinstance(stmt, ast.Try):
                self._scan_block(stmt.body, guarded)
                for handler in stmt.handlers:
                    self._scan_block(handler.body, guarded)
                self._scan_block(stmt.orelse, guarded)
                self._scan_block(stmt.finalbody, guarded)
                continue
            if isinstance(stmt, ast.Assign):
                self._check_exprs([stmt.value], guarded)
                self._apply_assignment(stmt.targets, stmt.value, guarded)
                continue
            if isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    self._check_exprs([stmt.value], guarded)
                    self._apply_assignment([stmt.target], stmt.value, guarded)
                continue
            # Leaf statement (Expr, Return, Assert, AugAssign, ...): check
            # every contained expression.
            self._check_stmt(stmt, guarded)

    def _apply_assignment(self, targets: Iterable[ast.expr],
                          value: ast.expr, guarded: Set[str]) -> None:
        """Update guard state for an assignment to a bus-ish target."""
        value_guarded = (
            # ``bus = TelemetryBus()``: provably not None.
            isinstance(value, ast.Call)
            and terminal_name(value.func) == "TelemetryBus")
        source_key = _bus_key(value)
        for target in targets:
            key = _bus_key(target)
            if key is None:
                continue
            if value_guarded or (source_key is not None
                                 and source_key in guarded):
                guarded.add(key)
            else:
                guarded.discard(key)

    # ------------------------------------------------------------------
    # emit detection
    # ------------------------------------------------------------------
    def _check_stmt(self, stmt: ast.stmt, guarded: Set[str]) -> None:
        exprs: List[ast.expr] = [
            child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)
        ]
        self._check_exprs(exprs, guarded)

    def _check_exprs(self, exprs: Iterable[Optional[ast.expr]],
                     guarded: Set[str]) -> None:
        for expr in exprs:
            if expr is None:
                continue
            for node in ast.walk(expr):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr == "emit"):
                    continue
                key = _bus_key(func.value)
                if key is None or key in guarded:
                    continue
                self.report(
                    node,
                    f"{key}.emit(...) without a dominating "
                    f"'{key} is None' guard; telemetry-off runs would "
                    "crash here (docs/OBSERVABILITY.md)")
