"""The layering contract between the packages of ``repro``.

The dependency direction between packages is part of the design
(DESIGN.md): ``des`` < ``core`` < ``network`` < ``harness``, with ``obs``
as a protocol-agnostic leaf.  :data:`LAYER_CONTRACTS` lists the
forbidden edges and :data:`ALLOWED` the reasoned exceptions.  Every
import statement counts, at any depth: an import inside a function or
an ``if TYPE_CHECKING:`` block ties two layers as much as a top-level
one does.
"""

import ast
import pathlib
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Layer prefix -> import prefixes that layer must not depend on.
#:
#: * ``core``/``des`` are the simulation kernel: depending on the
#:   orchestration (``harness``) or offline-analysis layers would drag
#:   batch/IO concerns into the deterministic hot path and create import
#:   cycles with the layers that drive the kernel.
#: * ``obs`` is the observation channel: it must stay protocol-agnostic
#:   (instrumented layers import *it*, never the reverse), or enabling
#:   telemetry could feed back into simulation state.
LAYER_CONTRACTS = {
    "repro.core": ("repro.harness", "repro.analysis"),
    "repro.des": ("repro.harness", "repro.analysis"),
    "repro.obs": (
        "repro.core", "repro.des", "repro.network", "repro.protocols",
        "repro.contact", "repro.radio", "repro.traffic", "repro.mobility",
        "repro.energy", "repro.metrics", "repro.scenario", "repro.harness",
        "repro.analysis",
    ),
    # The scenario layer sits between mobility/contact/network and the
    # harness: it may build configs (registry) but must never reach up
    # into experiment drivers or analysis.
    "repro.scenario": ("repro.harness", "repro.analysis", "repro.api"),
    # The protocol package holds every protocol's agent and policy (one
    # module per protocol, built on core, radio and the contact policy
    # base) plus the registry the layers above it consult; reaching up
    # into the harness, analysis, or facade would close a cycle with
    # every registry consumer.
    "repro.protocols": ("repro.harness", "repro.analysis", "repro.api"),
}

#: (importing module, imported module) -> why the edge is allowed.  The
#: Sec. 4 closed-form modules are pure math (stdlib ``math`` only, no
#: simulation imports), so the kernel can use them without a cycle.
ALLOWED = {
    ("repro.core.contention", "repro.analysis.collision"):
        "the Eq. 14 CTS window is computed live from the neighbor count",
    ("repro.core.listen", "repro.analysis.collision"):
        "the listen scheduler evaluates Eq. 9 and the Eq. 13 search",
    ("repro.core.sleep", "repro.analysis.sleep_bounds"):
        "sleep scheduling clamps to the Eq. 8 bound",
}


def _in_layer(module, prefix):
    return module == prefix or module.startswith(prefix + ".")


def _module_name(root, path):
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(node, package, modules):
    """Modules one import statement binds from (submodules narrowed)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        parts = package.split(".")
        parts = parts[:len(parts) - (node.level - 1)]
        base = ".".join(parts + ([node.module] if node.module else []))
    return [f"{base}.{alias.name}" if f"{base}.{alias.name}" in modules
            else base for alias in node.names]


def layer_violations(root, allowed=ALLOWED):
    """``(module, line, imported module, forbidden prefix)`` per crossing.

    Scans every ``.py`` file under ``root/repro``; an edge listed in
    ``allowed`` is not reported.
    """
    paths = {_module_name(root, path): path
             for path in sorted((root / "repro").rglob("*.py"))}
    found = []
    for name, path in paths.items():
        forbidden = [prefix for layer, prefixes in LAYER_CONTRACTS.items()
                     if _in_layer(name, layer) for prefix in prefixes]
        if not forbidden:
            continue
        package = (name if path.name == "__init__.py"
                   else name.rpartition(".")[0])
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for target in _imported_modules(node, package, paths):
                hit = next((prefix for prefix in forbidden
                            if _in_layer(target, prefix)), None)
                if hit is not None and (name, target) not in allowed:
                    found.append((name, node.lineno, target, hit))
    return sorted(set(found))


def test_src_tree_keeps_layering_contract():
    assert layer_violations(SRC) == []


def test_every_allowed_edge_exists():
    crossings = {(module, target)
                 for module, _, target, _ in layer_violations(SRC, {})}
    assert crossings == set(ALLOWED)


def _write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source).lstrip())


PACKAGES = {f"repro/{pkg}/__init__.py": "" for pkg in
            ("core", "obs", "harness", "scenario", "protocols")}


@pytest.mark.parametrize("rel, source, expected", [
    ("repro/core/clock.py", "from repro.harness.runner import SerialRunner\n",
     [("repro.core.clock", 1, "repro.harness.runner", "repro.harness")]),
    ("repro/core/clock.py", """
        def run():
            from repro.harness import runner
            return runner
     """, [("repro.core.clock", 2, "repro.harness.runner", "repro.harness")]),
    ("repro/obs/probe.py", "from repro.scenario.spec import Spec\n",
     [("repro.obs.probe", 1, "repro.scenario.spec", "repro.scenario")]),
    ("repro/obs/probe.py", "from repro.core.node import Node\n",
     [("repro.obs.probe", 1, "repro.core.node", "repro.core")]),
    ("repro/obs/probe.py", """
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            from ..protocols.registry import get_protocol
     """, [("repro.obs.probe", 3, "repro.protocols.registry",
            "repro.protocols")]),
    ("repro/harness/exp.py", "from repro.core.clock import Clock\n", []),
], ids=["core-harness", "core-harness-in-function", "obs-scenario",
        "obs-core", "obs-protocols-type-checking", "harness-core-clean"])
def test_crossing_import_is_reported(tmp_path, rel, source, expected):
    _write_tree(tmp_path, {**PACKAGES,
                           "repro/__init__.py": "",
                           "repro/harness/runner.py": "",
                           "repro/scenario/spec.py": "",
                           "repro/protocols/registry.py": "",
                           rel: source})
    assert layer_violations(tmp_path) == expected
