"""The namespaced facade contract (PR 8).

``repro.api`` split into themed sub-facades while keeping the flat
surface as the compatibility boundary.  These tests pin the contract:

* flat ``__all__`` is the exact disjoint union of the sub-facade
  ``__all__`` lists, the sub-facades being every module in the
  ``repro.api`` package;
* every flat name is *the same object* as its sub-facade origin — the
  split introduced no wrappers, copies, or divergent imports;
* every sub-facade name resolves on import (no lazy breakage);
* every ``__all__`` name of every module under ``repro`` is bound;
* every name a bundled example imports from the facade is in the
  imported module's ``__all__``;
* the historical flat imports the bundled examples used before the
  migration keep working.

Each of the three helpers that check a contract over the whole tree is
also run on a small package written to disk, once where it must report
a fault and once where it must stay quiet.
"""

import ast
import collections
import importlib
import pathlib
import pkgutil
import sys
import textwrap

import pytest

import repro.api as api

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"

SUB_FACADES = tuple(info.name for info in pkgutil.iter_modules(api.__path__))


def _sub_modules():
    return {name: importlib.import_module(f"repro.api.{name}")
            for name in SUB_FACADES}


def test_every_sub_facade_declares_all():
    for name, module in _sub_modules().items():
        assert getattr(module, "__all__", None), (
            f"repro.api.{name} must declare a non-empty __all__")


def partition_faults(facade):
    """How ``facade.__all__`` fails to be the disjoint union of its parts.

    The parts are the ``__all__`` lists of every module in the
    ``facade`` package.
    """
    owners, faults = {}, []
    for info in pkgutil.iter_modules(facade.__path__):
        module = importlib.import_module(f"{facade.__name__}.{info.name}")
        for export in module.__all__:
            if export in owners:
                faults.append(f"{export!r} exported by more than one "
                              f"sub-facade: {owners[export]}, "
                              f"{module.__name__}")
            else:
                owners[export] = module.__name__
    flat = collections.Counter(facade.__all__)
    faults += [f"{name!r} listed twice in the flat __all__"
               for name, count in sorted(flat.items()) if count > 1]
    faults += [f"{name!r} is in no sub-facade"
               for name in sorted(set(flat) - set(owners))]
    faults += [f"{name!r} ({owners[name]}) is missing from the flat __all__"
               for name in sorted(set(owners) - set(flat))]
    return faults


def test_flat_all_is_exact_disjoint_union():
    assert partition_faults(api) == []


def test_flat_names_are_sub_facade_objects():
    modules = _sub_modules()
    for name, module in modules.items():
        for export in module.__all__:
            assert getattr(api, export) is getattr(module, export), (
                f"repro.api.{export} is not repro.api.{name}.{export}")


def test_sub_facade_attributes_resolve():
    for name, module in _sub_modules().items():
        for export in module.__all__:
            assert getattr(module, export) is not None


def test_sub_facades_importable_as_attributes():
    # ``import repro.api as api; api.sim.run_simulation`` style.
    for name in SUB_FACADES:
        assert getattr(api, name) is importlib.import_module(
            f"repro.api.{name}")


@pytest.mark.parametrize("flat_import", [
    # the exact flat imports examples/*.py used before the migration
    ("SimulationConfig", "run_simulation"),
    ("Simulation", "SimulationConfig"),
    ("BurstTraffic", "Simulation", "SimulationConfig"),
    ("FIG2_PROTOCOLS", "fig2", "format_fig2_report"),
    ("FrameKind", "Simulation", "SimulationConfig", "TimeSeriesProbe",
     "TraceRecorder", "channel_usage", "message_journey", "node_activity"),
    ("BERKELEY_MOTE", "cts_collision_probability", "min_contention_window",
     "min_sleep_period", "min_tau_max", "rts_collision_probability",
     "sigma_slots"),
    ("Area", "ContactSimConfig", "ContactTracer", "EventScheduler",
     "MobilityManager", "StationaryMobility", "ZoneGridMobility",
     "direct_expected_delay", "epidemic_expected_delay",
     "format_policy_comparison", "pair_contact_rate", "policy_comparison",
     "run_contact_simulation"),
])
def test_historical_flat_imports_keep_working(flat_import):
    for name in flat_import:
        assert name in api.__all__
        getattr(api, name)


def test_bench_surface_present():
    from repro.api.bench import (  # noqa: F401
        ScalePoint,
        load_scale_report,
        measure_scale,
        run_scale_suite,
        scale_config,
        write_scale_report,
    )
    cfg = scale_config(100, 60.0)
    assert cfg.n_sensors == 100
    assert cfg.duration_s == 60.0


def test_deep_import_of_old_flat_module_path():
    # ``import repro.api`` (the module object itself) must still expose
    # the whole surface for tooling that introspects it.
    module = importlib.import_module("repro.api")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def unbound_exports(modules):
    """``module.name`` for every ``__all__`` name a module never binds."""
    return [f"{module.__name__}.{name}" for module in modules
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def test_every_module_all_is_bound(repro_modules):
    assert unbound_exports(repro_modules) == []


def unexported_imports(examples, facade="repro.api"):
    """``file:line module.name`` for every name an example imports from
    ``facade`` or a module under it that is not in that module's
    ``__all__``."""
    unexported = []
    for example in sorted(examples.glob("*.py")):
        tree = ast.parse(example.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and (node.module == facade
                         or node.module.startswith(facade + "."))):
                continue
            exports = importlib.import_module(node.module).__all__
            unexported += [f"{example.name}:{node.lineno} "
                           f"{node.module}.{alias.name}"
                           for alias in node.names
                           if alias.name not in (*exports, "*")]
    return unexported


def test_examples_import_only_exported_names():
    assert sorted(EXAMPLES.glob("*.py"))
    assert unexported_imports(EXAMPLES) == []


# Each contract helper above is shown to report the fault it exists for
# on a small package written to disk and imported for the test.

@pytest.fixture
def write_tree(tmp_path, monkeypatch):
    """Write ``{relative path: source}`` under a fresh ``sys.path`` entry."""
    monkeypatch.syspath_prepend(str(tmp_path))
    tops = set()

    def write(files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source).lstrip())
            tops.add(pathlib.PurePath(rel).parts[0])
        importlib.invalidate_caches()
        return tmp_path

    yield write
    for name in [n for n in sys.modules if n.split(".")[0] in tops]:
        del sys.modules[name]


def test_unbound_export_is_reported(write_tree):
    write_tree({
        "demo_pkg/__init__.py": "",
        "demo_pkg/mod.py": """
            __all__ = ["present", "ghost"]

            def present():
                pass
        """,
    })
    module = importlib.import_module("demo_pkg.mod")
    assert unbound_exports([module]) == ["demo_pkg.mod.ghost"]


def test_broken_reexport_chain_is_reported(write_tree):
    # A re-export of a name the source never binds fails the import the
    # session fixture makes of every module, before any name is checked.
    write_tree({
        "demo_pkg/__init__.py": "",
        "demo_pkg/impl.py": "x = 1\n",
        "demo_pkg/mod.py": """
            from demo_pkg.impl import missing

            __all__ = ["missing"]
        """,
    })
    with pytest.raises(ImportError, match="missing"):
        importlib.import_module("demo_pkg.mod")


def test_resolving_surface_is_clean(write_tree):
    write_tree({
        "demo_pkg/__init__.py": "",
        "demo_pkg/impl.py": "def real():\n    pass\n",
        "demo_pkg/mod.py": """
            from demo_pkg.impl import real

            __all__ = ["real"]
        """,
    })
    module = importlib.import_module("demo_pkg.mod")
    assert unbound_exports([module]) == []


FLAT_FACADE = {
    "demo_pkg/__init__.py": "",
    "demo_pkg/api.py": """
        def exported():
            pass

        def hidden():
            pass

        __all__ = ["exported"]
    """,
}

PACKAGE_FACADE = {
    "demo_pkg/__init__.py": "",
    "demo_pkg/api/__init__.py": """
        from demo_pkg.api.sim import exported

        __all__ = ["exported"]
    """,
    "demo_pkg/api/sim.py": """
        def exported():
            pass

        def hidden():
            pass

        __all__ = ["exported"]
    """,
}


def _example_faults(write_tree, facade_files, example):
    root = write_tree({**facade_files, "examples/demo.py": example})
    return unexported_imports(root / "examples", facade="demo_pkg.api")


def test_example_importing_unexported_name_is_reported(write_tree):
    assert _example_faults(
        write_tree, FLAT_FACADE,
        "from demo_pkg.api import exported, hidden\n",
    ) == ["demo.py:1 demo_pkg.api.hidden"]


def test_covered_example_is_clean(write_tree):
    assert _example_faults(
        write_tree, FLAT_FACADE, "from demo_pkg.api import exported\n",
    ) == []


def test_facade_package_covered_example_is_clean(write_tree):
    assert _example_faults(
        write_tree, PACKAGE_FACADE, "from demo_pkg.api import exported\n",
    ) == []


def test_sub_facade_unexported_import_is_reported(write_tree):
    assert _example_faults(
        write_tree, PACKAGE_FACADE, "from demo_pkg.api.sim import hidden\n",
    ) == ["demo.py:1 demo_pkg.api.sim.hidden"]


def test_sub_facade_covered_import_is_clean(write_tree):
    assert _example_faults(
        write_tree, PACKAGE_FACADE,
        "from demo_pkg.api.sim import exported\n",
    ) == []


def _partition_faults(write_tree, flat_source, sim_all, extra=()):
    sim_defs = "".join(f"def {name}():\n    pass\n"
                       for name in sorted(set(sim_all) | {"a", "b"}))
    write_tree({
        "demo_pkg/__init__.py": "",
        "demo_pkg/api/__init__.py": flat_source,
        "demo_pkg/api/sim.py": sim_defs + f"__all__ = {sim_all!r}\n",
        **dict(extra),
    })
    return partition_faults(importlib.import_module("demo_pkg.api"))


def test_exact_partition_is_clean(write_tree):
    assert _partition_faults(
        write_tree,
        "from demo_pkg.api.sim import a, b\n__all__ = ['a', 'b']\n",
        ["a", "b"],
    ) == []


def test_flat_name_without_home_is_reported(write_tree):
    assert _partition_faults(
        write_tree,
        "from demo_pkg.api.sim import a\n"
        "def b():\n    pass\n"
        "__all__ = ['a', 'b']\n",
        ["a"],
    ) == ["'b' is in no sub-facade"]


def test_sub_facade_name_missing_flat_is_reported(write_tree):
    assert _partition_faults(
        write_tree,
        "from demo_pkg.api.sim import a, b\n__all__ = ['a']\n",
        ["a", "b"],
    ) == ["'b' (demo_pkg.api.sim) is missing from the flat __all__"]


def test_name_owned_by_two_sub_facades_is_reported(write_tree):
    assert _partition_faults(
        write_tree,
        "from demo_pkg.api.sim import a, b\n__all__ = ['a', 'b']\n",
        ["a", "b"],
        extra={"demo_pkg/api/obs.py": "def a():\n    pass\n"
                                      "__all__ = ['a']\n"},
    ) == ["'a' exported by more than one sub-facade: demo_pkg.api.obs, "
          "demo_pkg.api.sim"]
