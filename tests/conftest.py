"""Shared test fixtures.

Pulls in the invariant-checking fixture from
:mod:`repro.checks.pytest_plugin`: every simulation run by any test —
in-process or in a worker process — executes with the runtime protocol
invariant checker enabled, so the whole tier-1 suite doubles as an
invariant test (see docs/CHECKS.md).

``repro_modules`` imports every module of the package once per session,
for the contract tests that hold over the whole tree (every ``__all__``
resolves, every ``FaultModel`` subclass keeps the fault contract).
"""

import importlib
import pkgutil

import pytest

import repro
from repro.checks.pytest_plugin import enforce_invariants  # noqa: F401


@pytest.fixture(scope="session")
def repro_modules():
    """``repro`` and every module under it, ``__main__`` left out."""
    return [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
