"""Fixture tests for the project-aware rule families (PR 7).

Every new rule gets a known-bad fixture proving it fires and a
known-good fixture proving it stays quiet.
"""

import textwrap

from repro.checks.engine import lint_paths, lint_source


def rules_of(source, sim_module=False):
    return [f.rule for f in lint_source(textwrap.dedent(source),
                                        sim_module=sim_module)]


def tree_rules(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source).lstrip())
    return lint_paths([str(tmp_path)])


class TestSub001:
    def test_raw_random_in_sim_code_fires(self):
        assert rules_of("import random\nr = random.Random(42)\n",
                        sim_module=True) == ["SUB001"]

    def test_imported_random_alias_fires(self):
        src = """
            from random import Random
            r = Random(7)
        """
        assert "SUB001" in rules_of(src, sim_module=True)

    def test_outside_sim_code_clean(self):
        assert rules_of("import random\nr = random.Random(42)\n",
                        sim_module=False) == []

    def test_dynamic_stream_key_in_fault_model_fires(self):
        src = """
            class Custom(FaultModel):
                def arm(self, sim):
                    rng = sim.streams.stream(self.key)
        """
        assert rules_of(src, sim_module=True) == ["SUB001"]

    def test_wrong_prefix_in_fault_model_fires(self):
        src = """
            class Custom(FaultModel):
                def arm(self, sim):
                    rng = sim.streams.stream("mobility:zones")
        """
        assert rules_of(src, sim_module=True) == ["SUB001"]

    def test_declared_fault_substream_clean(self):
        src = '''
            class Custom(FaultModel):
                def arm(self, sim):
                    rng = sim.streams.stream(f"faults:{self.name}")
        '''
        assert rules_of(src, sim_module=True) == []

    def test_module_bound_key_outside_fault_model_clean(self):
        src = """
            def setup(sim):
                rng = sim.streams.stream("mobility:zones")
        """
        assert rules_of(src, sim_module=True) == []

    def test_transitive_fault_subclass_via_model(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "network/__init__.py": "",
            "network/base.py": """
                class FaultModel:
                    pass

                class Death(FaultModel):
                    pass
            """,
            "network/custom.py": """
                from network.base import Death

                class SlowDeath(Death):
                    def arm(self, sim):
                        rng = sim.streams.stream("wrong:" + self.name)
            """,
        })
        assert [f.rule for f in findings] == ["SUB001"]
        assert findings[0].path.endswith("custom.py")


class TestSch001:
    def test_missing_priority_fires(self):
        src = """
            class Custom(FaultModel):
                def arm(self, sim):
                    sim.schedule(5.0, self._fire)
        """
        assert rules_of(src, sim_module=True) == ["SCH001"]

    def test_wrong_priority_fires(self):
        src = """
            class Custom(FaultModel):
                def arm(self, sim):
                    sim.schedule(5.0, self._fire, priority=0)
        """
        assert rules_of(src, sim_module=True) == ["SCH001"]

    def test_fault_priority_clean(self):
        src = """
            class Custom(FaultModel):
                def arm(self, sim):
                    sim.schedule(5.0, self._fire, priority=FAULT_PRIORITY)
        """
        assert rules_of(src, sim_module=True) == []

    def test_scheduling_outside_fault_model_clean(self):
        src = """
            def pump(sim):
                sim.schedule(5.0, tick)
        """
        assert rules_of(src, sim_module=True) == []


class TestObs001:
    def test_unguarded_emit_fires(self):
        src = """
            def f(self):
                self._bus.emit("x", {})
        """
        assert rules_of(src) == ["OBS001"]

    def test_wrapped_guard_clean(self):
        src = """
            def f(self):
                bus = self._bus
                if bus is not None:
                    bus.emit("x", {})
        """
        assert rules_of(src) == []

    def test_early_return_guard_clean(self):
        src = """
            def f(self, bus):
                if bus is None:
                    return
                bus.emit("x", {})
        """
        assert rules_of(src) == []

    def test_or_disjunct_early_return_clean(self):
        src = """
            def f(self, bus, phase):
                if bus is None or phase is None:
                    return
                bus.emit("x", {})
        """
        assert rules_of(src) == []

    def test_conjunction_guard_clean(self):
        src = """
            def f(self):
                if self._bus is not None and self._sim is not None:
                    self._bus.emit("x", {})
        """
        assert rules_of(src) == []

    def test_guard_on_other_reference_fires(self):
        src = """
            def f(self, bus):
                if self._bus is not None:
                    bus.emit("x", {})
        """
        assert rules_of(src) == ["OBS001"]

    def test_reassignment_invalidates_guard(self):
        src = """
            def f(self):
                bus = self._bus
                if bus is None:
                    return
                bus = self.other_bus()
                bus.emit("x", {})
        """
        assert rules_of(src) == ["OBS001"]

    def test_fresh_telemetry_bus_is_guarded(self):
        src = """
            def f(self):
                bus = TelemetryBus()
                bus.emit("x", {})
        """
        assert rules_of(src) == []

    def test_nested_function_starts_unguarded(self):
        src = """
            def f(bus):
                if bus is None:
                    return
                def later():
                    bus.emit("x", {})
                return later
        """
        assert rules_of(src) == ["OBS001"]


class TestApi001:
    def test_unbound_export_fires(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/mod.py": """
                __all__ = ["present", "ghost"]

                def present():
                    pass
            """,
        })
        assert [f.rule for f in findings] == ["API001"]
        assert "ghost" in findings[0].message

    def test_broken_reexport_chain_fires(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/impl.py": "x = 1\n",
            "pkg/mod.py": """
                from pkg.impl import missing

                __all__ = ["missing"]
            """,
        })
        assert [f.rule for f in findings] == ["API001"]

    def test_resolving_surface_clean(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/impl.py": "def real():\n    pass\n",
            "pkg/mod.py": """
                from pkg.impl import real

                __all__ = ["real"]
            """,
        })
        assert findings == []


class TestApi002:
    FACADE_TREE = {
        "src/pkg/__init__.py": "",
        "src/pkg/api.py": """
            def exported():
                pass

            def hidden():
                pass

            __all__ = ["exported"]
        """,
        "examples/demo.py": """
            from pkg.api import exported, hidden
        """,
    }

    def test_example_importing_unexported_name_fires(self, tmp_path):
        findings = tree_rules(tmp_path, dict(self.FACADE_TREE))
        assert [f.rule for f in findings] == ["API002"]
        assert "hidden" in findings[0].message
        assert findings[0].path.endswith("demo.py")

    def test_covered_example_clean(self, tmp_path):
        tree = dict(self.FACADE_TREE)
        tree["examples/demo.py"] = "from pkg.api import exported\n"
        assert tree_rules(tmp_path, tree) == []

    PACKAGE_TREE = {
        "src/pkg/__init__.py": "",
        "src/pkg/api/__init__.py": """
            from pkg.api.sim import exported

            __all__ = ["exported"]
        """,
        "src/pkg/api/sim.py": """
            def exported():
                pass

            def hidden():
                pass

            __all__ = ["exported"]
        """,
    }

    def test_facade_package_example_covered_clean(self, tmp_path):
        tree = dict(self.PACKAGE_TREE)
        tree["examples/demo.py"] = "from pkg.api import exported\n"
        assert tree_rules(tmp_path, tree) == []

    def test_facade_package_walkup_finds_examples(self, tmp_path):
        # The facade is a package (api/__init__.py two levels deeper
        # than the old flat api.py): the rule must still locate
        # examples/ and flag the uncovered import.
        tree = dict(self.PACKAGE_TREE)
        tree["examples/demo.py"] = "from pkg.api import exported, ghost\n"
        findings = tree_rules(tmp_path, tree)
        assert [f.rule for f in findings] == ["API002"]
        assert "ghost" in findings[0].message

    def test_subfacade_import_checked(self, tmp_path):
        tree = dict(self.PACKAGE_TREE)
        tree["examples/demo.py"] = "from pkg.api.sim import hidden\n"
        findings = tree_rules(tmp_path, tree)
        assert [f.rule for f in findings] == ["API002"]
        assert "hidden" in findings[0].message
        assert "pkg.api.sim" in findings[0].message

    def test_subfacade_import_covered_clean(self, tmp_path):
        tree = dict(self.PACKAGE_TREE)
        tree["examples/demo.py"] = "from pkg.api.sim import exported\n"
        assert tree_rules(tmp_path, tree) == []


class TestApi003:
    def _tree(self, init_all, sim_all, extra=None):
        sim_defs = "\n".join(
            f"def {n}():\n    pass\n" for n in set(sim_all) | {"a", "b"})
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/api/__init__.py": (
                "from pkg.api.sim import a, b\n"
                f"__all__ = {init_all!r}\n"),
            "src/pkg/api/sim.py": sim_defs + f"__all__ = {sim_all!r}\n",
        }
        if extra:
            files.update(extra)
        return files

    @staticmethod
    def _api003(findings):
        return [f for f in findings if f.rule == "API003"]

    def test_exact_partition_clean(self, tmp_path):
        findings = tree_rules(
            tmp_path, self._tree(["a", "b"], ["a", "b"]))
        assert self._api003(findings) == []

    def test_flat_name_without_home_fires(self, tmp_path):
        files = self._tree(["a", "b"], ["a"])
        # Bind "b" in the flat module itself so only API003 fires.
        files["src/pkg/api/__init__.py"] = (
            "from pkg.api.sim import a\n"
            "def b():\n    pass\n"
            "__all__ = ['a', 'b']\n")
        findings = self._api003(tree_rules(tmp_path, files))
        assert len(findings) == 1
        assert "'b'" in findings[0].message
        assert "no sub-facade" in findings[0].message

    def test_subfacade_name_missing_flat_fires(self, tmp_path):
        findings = self._api003(tree_rules(
            tmp_path, self._tree(["a"], ["a", "b"])))
        assert len(findings) == 1
        assert "'b'" in findings[0].message
        assert "missing from the flat" in findings[0].message

    def test_name_owned_twice_fires(self, tmp_path):
        files = self._tree(["a", "b"], ["a", "b"], extra={
            "src/pkg/api/obs.py": "def a():\n    pass\n__all__ = ['a']\n",
        })
        findings = self._api003(tree_rules(tmp_path, files))
        assert len(findings) == 1
        assert "more than one" in findings[0].message
        assert "pkg.api.obs" in findings[0].message
        assert "pkg.api.sim" in findings[0].message

    def test_flat_module_without_submodules_ignored(self, tmp_path):
        # Pre-split layout: a flat api.py with no sub-facades must not
        # trigger the partition rule.
        findings = tree_rules(tmp_path, {
            "src/pkg/__init__.py": "",
            "src/pkg/api.py": "def a():\n    pass\n__all__ = ['a']\n",
        })
        assert self._api003(findings) == []


class TestArch001:
    def test_core_importing_harness_fires(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "repro/__init__.py": "",
            "repro/core/__init__.py": "",
            "repro/core/clock.py": """
                from repro.harness.runner import SerialRunner
            """,
            "repro/harness/__init__.py": "",
            "repro/harness/runner.py": "class SerialRunner:\n    pass\n",
        })
        assert [f.rule for f in findings] == ["ARCH001"]
        assert findings[0].path.endswith("clock.py")
        assert findings[0].line == 1

    def test_obs_importing_protocol_fires(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "repro/__init__.py": "",
            "repro/obs/__init__.py": "",
            "repro/obs/probe.py": "from repro.core.node import Node\n",
            "repro/core/__init__.py": "",
            "repro/core/node.py": "class Node:\n    pass\n",
        })
        assert [f.rule for f in findings] == ["ARCH001"]

    def test_obs_importing_protocol_registry_fires(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "repro/__init__.py": "",
            "repro/obs/__init__.py": "",
            "repro/obs/probe.py": (
                "from repro.protocols.registry import get_protocol\n"),
            "repro/protocols/__init__.py": "",
            "repro/protocols/registry.py": "def get_protocol():\n    pass\n",
        })
        assert [f.rule for f in findings] == ["ARCH001"]
        assert "'repro.protocols'" in findings[0].message

    def test_obs_importing_scenario_fires(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "repro/__init__.py": "",
            "repro/obs/__init__.py": "",
            "repro/obs/probe.py": "from repro.scenario.spec import Spec\n",
            "repro/scenario/__init__.py": "",
            "repro/scenario/spec.py": "class Spec:\n    pass\n",
        })
        assert [f.rule for f in findings] == ["ARCH001"]
        assert "'repro.scenario'" in findings[0].message

    def test_harness_importing_core_clean(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "repro/__init__.py": "",
            "repro/core/__init__.py": "",
            "repro/core/node.py": "class Node:\n    pass\n",
            "repro/harness/__init__.py": "",
            "repro/harness/exp.py": "from repro.core.node import Node\n",
        })
        assert findings == []

    def test_pragma_justifies_historical_exception(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "repro/__init__.py": "",
            "repro/analysis/__init__.py": "def f():\n    pass\n",
            "repro/core/__init__.py": "",
            "repro/core/m.py": ("from repro.analysis import f"
                                "  # lint: disable=ARCH001 (pure math)\n"),
        })
        assert findings == []


class TestReg001:
    def test_constant_roster_tuple_fires(self):
        assert rules_of('ROSTER = ("opt", "epidemic", "direct")\n') == [
            "REG001"]

    def test_dict_keyed_by_protocol_names_fires(self):
        assert rules_of(
            'TABLE = {"opt": 1, "zbr": 2, "direct": 3}\n') == ["REG001"]

    def test_frozenset_of_protocol_names_fires(self):
        assert rules_of(
            'FIFO = frozenset(["zbr", "epidemic", "direct"])\n'
        ) == ["REG001"]

    def test_set_literal_fires(self):
        assert rules_of('BAD = {"two_hop", "meeting_rate"}\n'
                        'len(BAD)\n') == ["REG001"]

    def test_single_protocol_choice_clean(self):
        # One name is a protocol *selection*, not a shadow table.
        assert rules_of('DEFAULT = "opt"\n'
                        'cfg = {"protocol": "opt", "seed": 1}\n') == []

    def test_unregistered_names_clean(self):
        assert rules_of('MODES = ("walk", "waypoint", "levy")\n') == []

    def test_lowercase_local_clean(self):
        # Only UPPER_CASE constants are rosters; locals echoing results
        # back (e.g. dict comprehensions over registry output) are fine.
        assert rules_of('names = ("opt", "zbr")\n') == []

    def test_registry_package_exempt(self, tmp_path):
        findings = tree_rules(tmp_path, {
            "repro/__init__.py": "",
            "repro/protocols/__init__.py": "",
            "repro/protocols/builtin.py":
                'ORDER = ("opt", "epidemic", "direct")\n',
        })
        assert findings == []

    def test_pragma_suppresses(self):
        assert rules_of(
            'LEGACY = ("opt", "zbr")  # lint: disable=REG001 (doc table)\n'
        ) == []
