"""Tests for pass 1 of the lint engine: the project model.

A fixture mini-package with known imports, subclasses, ``__all__``
surfaces, a re-export chain and an import cycle is built on disk; the
assertions pin the symbol table, the import graph, the class-hierarchy
closure and the facade inventory exactly.
"""

import pathlib
import textwrap

from repro.checks.project import (
    ProjectModel,
    collect_module,
    module_name_for,
)

FIXTURE = {
    "pkg/__init__.py": """
        from pkg.api import Thing

        __all__ = ["Thing"]
    """,
    "pkg/api.py": """
        from pkg.models import Thing
        from pkg.models import Death as RenamedDeath

        __all__ = ["Thing", "RenamedDeath", "helper"]

        def helper():
            return Thing()
    """,
    "pkg/models.py": """
        from dataclasses import dataclass
        from typing import ClassVar

        class FaultModel:
            pass

        class Death(FaultModel):
            pass

        class SubDeath(Death):
            pass

        @dataclass(frozen=True)
        class Thing:
            KIND: ClassVar[str] = "thing"
            name: str
            size: int = 0

            def to_dict(self):
                return {"name": self.name, "size": self.size}
    """,
    "pkg/rel.py": """
        from .models import Thing
        from . import api
    """,
    "pkg/cycle_a.py": """
        from pkg.cycle_b import ghost

        __all__ = ["ghost"]
    """,
    "pkg/cycle_b.py": """
        from pkg.cycle_a import ghost
    """,
}


def build_fixture(tmp_path):
    for rel, source in FIXTURE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source).lstrip())
    files = sorted((tmp_path / "pkg").rglob("*.py"))
    return ProjectModel.build(files), tmp_path


class TestModuleNames:
    def test_walks_init_chain(self, tmp_path):
        _, root = build_fixture(tmp_path)
        assert module_name_for(root / "pkg" / "models.py") == "pkg.models"
        assert module_name_for(root / "pkg" / "__init__.py") == "pkg"

    def test_bare_file_keeps_stem(self, tmp_path):
        lone = tmp_path / "script.py"
        lone.write_text("x = 1\n")
        assert module_name_for(lone) == "script"


class TestSymbolTable:
    def test_models_symbols_exact(self, tmp_path):
        model, root = build_fixture(tmp_path)
        info = model.by_path[str(root / "pkg" / "models.py")]
        assert info.symbols == {
            "dataclass": "import",
            "ClassVar": "import",
            "FaultModel": "class",
            "Death": "class",
            "SubDeath": "class",
            "Thing": "class",
        }

    def test_import_records_capture_aliases(self, tmp_path):
        model, root = build_fixture(tmp_path)
        info = model.by_path[str(root / "pkg" / "api.py")]
        by_bound = {r.bound: r for r in info.imports}
        assert by_bound["RenamedDeath"].module == "pkg.models"
        assert by_bound["RenamedDeath"].name == "Death"


class TestImportGraph:
    def test_edges_exact(self, tmp_path):
        model, _ = build_fixture(tmp_path)
        graph = model.import_graph()
        assert graph["pkg.api"] == {"pkg.models"}
        assert graph["pkg.cycle_a"] == {"pkg.cycle_b"}
        assert graph["pkg.cycle_b"] == {"pkg.cycle_a"}
        assert graph["pkg"] == {"pkg.api"}
        # ``from pkg.models import Thing`` stays an edge to the module;
        # ``from pkg import api`` narrows to the submodule pkg.api.
        assert graph["pkg.rel"] == {"pkg.models", "pkg.api"}

    def test_relative_imports_resolved(self, tmp_path):
        model, root = build_fixture(tmp_path)
        info = model.by_path[str(root / "pkg" / "rel.py")]
        assert {r.module for r in info.imports} == {"pkg.models", "pkg"}


class TestClassHierarchy:
    def test_transitive_subclass_closure(self, tmp_path):
        model, _ = build_fixture(tmp_path)
        assert model.subclass_names("FaultModel") == {"Death", "SubDeath"}
        assert model.subclass_names("Death") == {"SubDeath"}
        assert model.subclass_names("Thing") == set()


class TestResolution:
    def test_reexport_chain_resolves(self, tmp_path):
        model, _ = build_fixture(tmp_path)
        # pkg.Thing -> pkg.api.Thing -> pkg.models.Thing (a class).
        assert model.resolves("pkg", "Thing")
        assert model.resolves("pkg.api", "RenamedDeath")
        assert model.resolves("pkg.api", "helper")

    def test_import_cycle_does_not_resolve(self, tmp_path):
        model, _ = build_fixture(tmp_path)
        assert not model.resolves("pkg.cycle_a", "ghost")
        assert not model.resolves("pkg.cycle_b", "ghost")

    def test_out_of_model_modules_trusted(self, tmp_path):
        model, _ = build_fixture(tmp_path)
        assert model.resolves("dataclasses", "dataclass")


class TestFacade:
    def test_inventory_exact(self, tmp_path):
        model, _ = build_fixture(tmp_path)
        exports, origins = model.facade("pkg.api")
        assert exports == ("Thing", "RenamedDeath", "helper")
        assert origins == {
            "Thing": "pkg.models",
            "RenamedDeath": "pkg.models",
            "helper": "",
        }

    def test_unknown_module_empty(self, tmp_path):
        model, _ = build_fixture(tmp_path)
        assert model.facade("no.such.module") == ((), {})


class TestCollectModule:
    def test_exports_lineno_recorded(self):
        info = collect_module("<m>", "x = 1\n__all__ = ['x']\n", name="m")
        assert info.exports == ("x",)
        assert info.exports_lineno == 2

    def test_non_literal_all_ignored(self):
        info = collect_module("<m>", "__all__ = list_of_names()\n", name="m")
        assert info.exports is None
