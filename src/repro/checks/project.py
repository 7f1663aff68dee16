"""Pass 1 of the static-analysis engine: the project model.

The original lint inspected one AST node at a time, which cannot see
*cross-module* conventions — the ``repro.api`` facade surface, the
``FaultModel`` class family, layering contracts.  :class:`ProjectModel` is the shared first pass: it parses
every file once and builds

* a per-module symbol table (:attr:`ModuleInfo.symbols`) and class
  inventory with base names;
* the import graph (absolute and relative imports resolved to dotted
  module names, edges narrowed to modules in the model);
* the ``__all__`` export surface per module, with a resolver that chases
  re-export chains (cycle-safe);
* the class hierarchy closure (:meth:`ProjectModel.subclass_names`).

Everything is pure ``ast`` — no file in the project is ever imported,
so linting cannot execute project code.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Packages whose modules form the deterministic simulation core; the
#: sim-only rules (DET002/DET003/SUB001/SCH001) apply only inside these.
#: ``scenario`` is enrolled because plan parsing, plan-driven mobility,
#: and the preset registry all feed seeded runs: any nondeterminism
#: there breaks byte-identical replay.  ``protocols`` is enrolled
#: because its agents/policies run inside the seeded event loop.
SIM_PACKAGES = frozenset({"core", "des", "network", "contact", "obs",
                          "scenario", "protocols"})

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


@dataclass(frozen=True)
class ImportRecord:
    """One imported binding at module top level (or any scope)."""

    #: Resolved absolute dotted module the binding comes from.
    module: str
    #: Symbol imported from ``module`` (None for ``import module``).
    name: Optional[str]
    #: Local name the import binds.
    bound: str
    lineno: int


@dataclass
class ClassInfo:
    """One class definition and its bases."""

    name: str
    lineno: int
    #: Dotted base expressions (``FaultModel``, ``abc.ABC``).
    bases: Tuple[str, ...]

    @property
    def base_terminals(self) -> Tuple[str, ...]:
        """Rightmost identifier of each base expression."""
        return tuple(b.rsplit(".", 1)[-1] for b in self.bases)


@dataclass
class ModuleInfo:
    """Everything pass 1 knows about one module."""

    path: str
    name: str
    tree: ast.Module
    source: str
    sim: bool
    #: Top-level bound names -> kind ("class" | "func" | "assign" | "import").
    symbols: Dict[str, str] = field(default_factory=dict)
    imports: List[ImportRecord] = field(default_factory=list)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: ``__all__`` list when statically resolvable, else None.
    exports: Optional[Tuple[str, ...]] = None
    exports_lineno: int = 0

    @property
    def package(self) -> str:
        """Dotted package containing this module (may be '')."""
        if self.path.endswith("__init__.py"):
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    if isinstance(node, ast.Call):  # decorator with arguments
        return _dotted(node.func)
    if isinstance(node, ast.Subscript):  # Generic[...] bases
        return _dotted(node.value)
    return None


def _resolve_relative(package: str, level: int, module: Optional[str]) -> str:
    """Absolute module targeted by a level-``level`` relative import."""
    parts = package.split(".") if package else []
    if level > 1:
        parts = parts[: max(0, len(parts) - (level - 1))]
    if module:
        parts = parts + module.split(".")
    return ".".join(parts)


def _collect_class(node: ast.ClassDef) -> ClassInfo:
    bases = tuple(b for b in (_dotted(base) for base in node.bases)
                  if b is not None)
    return ClassInfo(name=node.name, lineno=node.lineno, bases=bases)


def _collect_exports(stmt: ast.stmt) -> Optional[Tuple[str, ...]]:
    """The ``__all__`` literal of an assignment statement, if present."""
    targets: List[ast.expr] = []
    value: Optional[ast.expr] = None
    if isinstance(stmt, ast.Assign):
        targets, value = stmt.targets, stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets, value = [stmt.target], stmt.value
    for target in targets:
        if isinstance(target, ast.Name) and target.id == "__all__":
            if isinstance(value, (ast.List, ast.Tuple)):
                names = []
                for elt in value.elts:
                    if (isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)):
                        names.append(elt.value)
                return tuple(names)
    return None


def collect_module(path: str, source: str,
                   name: Optional[str] = None) -> ModuleInfo:
    """Parse one module and build its :class:`ModuleInfo` (pass 1)."""
    tree = ast.parse(source, filename=path)
    module_name = name if name is not None else module_name_for(
        pathlib.Path(path))
    info = ModuleInfo(path=path, name=module_name, tree=tree, source=source,
                      sim=is_sim_module(path))
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            info.symbols[stmt.name] = "class"
            info.classes[stmt.name] = _collect_class(stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.symbols[stmt.name] = "func"
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                info.symbols[bound] = "import"
                info.imports.append(ImportRecord(
                    module=alias.name, name=None, bound=bound,
                    lineno=stmt.lineno))
        elif isinstance(stmt, ast.ImportFrom):
            target = (_resolve_relative(info.package, stmt.level, stmt.module)
                      if stmt.level else (stmt.module or ""))
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                info.symbols[bound] = "import"
                info.imports.append(ImportRecord(
                    module=target, name=alias.name, bound=bound,
                    lineno=stmt.lineno))
        else:
            exports = _collect_exports(stmt)
            if exports is not None:
                info.exports = exports
                info.exports_lineno = stmt.lineno
            if isinstance(stmt, ast.Assign):
                for target_node in stmt.targets:
                    if isinstance(target_node, ast.Name):
                        info.symbols.setdefault(target_node.id, "assign")
            elif (isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)):
                info.symbols.setdefault(stmt.target.id, "assign")
    return info


class ProjectModel:
    """The pass-1 view of a whole linted tree."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        #: Primary index: path -> module info (paths are unique).
        self.by_path: Dict[str, ModuleInfo] = {m.path: m for m in modules}
        #: Dotted name -> module infos (duplicates possible in fixtures).
        self.by_name: Dict[str, List[ModuleInfo]] = {}
        for info in modules:
            self.by_name.setdefault(info.name, []).append(info)
        self._subclass_cache: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Iterable[pathlib.Path]) -> "ProjectModel":
        """Parse every file once and assemble the model."""
        modules = [
            collect_module(str(path), path.read_text(encoding="utf-8"))
            for path in files
        ]
        return cls(modules)

    def modules(self) -> List[ModuleInfo]:
        """All modules in deterministic (path) order."""
        return [self.by_path[p] for p in sorted(self.by_path)]

    # ------------------------------------------------------------------
    # import graph
    # ------------------------------------------------------------------
    def import_graph(self) -> Dict[str, Set[str]]:
        """Module name -> set of imported module names (resolved).

        A ``from X import name`` contributes an edge to ``X.name`` when
        that is itself a module in the model (importing a submodule),
        else to ``X``.
        """
        graph: Dict[str, Set[str]] = {}
        for info in self.modules():
            edges = graph.setdefault(info.name, set())
            for record in info.imports:
                target = record.module
                if (record.name is not None
                        and f"{target}.{record.name}" in self.by_name):
                    target = f"{target}.{record.name}"
                if target:
                    edges.add(target)
        return graph

    def imported_modules(self, info: ModuleInfo) -> List[Tuple[str, int]]:
        """(resolved target module, import line) pairs for one module."""
        out: List[Tuple[str, int]] = []
        for record in info.imports:
            target = record.module
            if (record.name is not None
                    and f"{target}.{record.name}" in self.by_name):
                target = f"{target}.{record.name}"
            if target:
                out.append((target, record.lineno))
        return out

    # ------------------------------------------------------------------
    # class hierarchy
    # ------------------------------------------------------------------
    def subclass_names(self, base: str) -> Set[str]:
        """Names of all (transitive) subclasses of ``base``.

        Matching is by terminal class name — precise enough for this
        project's unique class names, and safely over-approximate for
        lint purposes.
        """
        cached = self._subclass_cache.get(base)
        if cached is not None:
            return cached
        known: Set[str] = {base}
        changed = True
        while changed:
            changed = False
            for info in self.modules():
                for cls_info in info.classes.values():
                    if cls_info.name in known:
                        continue
                    if any(b in known for b in cls_info.base_terminals):
                        known.add(cls_info.name)
                        changed = True
        known.discard(base)
        self._subclass_cache[base] = known
        return known

    # ------------------------------------------------------------------
    # export / re-export resolution
    # ------------------------------------------------------------------
    def resolves(self, module: str, name: str,
                 _seen: Optional[Set[Tuple[str, str]]] = None) -> bool:
        """Whether ``module.name`` resolves to a definition.

        Chases re-export chains through modules in the model (cycle
        safe); a name imported from a module *outside* the model is
        assumed resolvable (stdlib / third party).
        """
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return False  # import cycle without a definition
        seen.add((module, name))
        infos = self.by_name.get(module)
        if not infos:
            return True  # outside the model: trust it
        for info in infos:
            kind = info.symbols.get(name)
            if kind in ("class", "func", "assign"):
                return True
            if kind == "import":
                record = next((r for r in reversed(info.imports)
                               if r.bound == name), None)
                if record is None:
                    return True
                if record.name is None:
                    # ``import a.b as name`` -> resolvable iff module known
                    return True
                if f"{record.module}.{record.name}" in self.by_name:
                    return True  # imports a submodule
                if self.resolves(record.module, record.name, seen):
                    return True
        return False

    def facade(self, module: str) -> Tuple[Tuple[str, ...], Dict[str, str]]:
        """A module's export surface: (``__all__``, name -> origin module).

        Origin is the module each exported name is *directly* imported
        from ('' when defined locally or unresolvable).
        """
        infos = self.by_name.get(module, [])
        if not infos:
            return (), {}
        info = infos[0]
        exports = info.exports if info.exports is not None else ()
        origins: Dict[str, str] = {}
        for name in exports:
            record = next((r for r in reversed(info.imports)
                           if r.bound == name), None)
            origins[name] = record.module if record is not None else ""
        return exports, origins
