"""Layering-contract rule (ARCH001)."""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.checks.rules.base import Finding, ProjectRule
from repro.checks.project import ProjectModel

#: Layer prefix -> import prefixes that layer must not depend on.
#:
#: * ``core``/``des`` are the simulation kernel: depending on the
#:   orchestration (``harness``) or offline-analysis layers would drag
#:   batch/IO concerns into the deterministic hot path and create import
#:   cycles with the layers that drive the kernel.
#: * ``obs`` is the observation channel: it must stay protocol-agnostic
#:   (instrumented layers import *it*, never the reverse), or enabling
#:   telemetry could feed back into simulation state.
LAYER_CONTRACTS: Dict[str, Tuple[str, ...]] = {
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


def _in_layer(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


class Arch001(ProjectRule):
    """ARCH001: cross-layer import against the layering contract.

    The dependency direction between packages is part of the design
    (DESIGN.md): ``des`` < ``core`` < ``network`` < ``harness``, with
    ``obs`` as a protocol-agnostic leaf.  :data:`LAYER_CONTRACTS` lists
    the forbidden edges; an import crossing one is reported at the
    import statement.  Historical exceptions (the kernel's use of the
    pure-math ``analysis`` leaves) carry line pragmas justified in
    docs/CHECKS.md — new violations must not.
    """

    rule_id = "ARCH001"

    def check_project(self, model: ProjectModel) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[Tuple[str, int, str]] = set()
        for info in model.modules():
            contracts = [
                (layer, forbidden)
                for layer, forbidden in sorted(LAYER_CONTRACTS.items())
                if _in_layer(info.name, layer)
            ]
            if not contracts:
                continue
            for target, lineno in model.imported_modules(info):
                for layer, forbidden in contracts:
                    hit = next((f for f in forbidden
                                if _in_layer(target, f)), None)
                    if hit is not None and (
                            info.path, lineno, target) not in seen:
                        # One ``from X import a, b`` line yields one
                        # record per name; report the edge once.
                        seen.add((info.path, lineno, target))
                        findings.append(Finding(
                            info.path, lineno, 0, self.rule_id,
                            f"layer {layer!r} must not import {hit!r} "
                            f"(imports {target}); see the layering "
                            "contract in docs/CHECKS.md"))
        return findings
