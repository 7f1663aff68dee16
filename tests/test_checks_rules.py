"""Fixture tests for the SUB, SCH, OBS and REG rule families.

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


def subclasses(cls):
    """Every transitive subclass of ``cls``."""
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def indirect_subclasses(base, prefix):
    """Subclasses of ``base`` from modules under ``prefix`` that do not
    name ``base`` among their direct bases."""
    return [cls.__qualname__ for cls in subclasses(base)
            if cls.__module__.startswith(prefix)
            and base not in cls.__bases__]


def test_every_fault_model_names_fault_model_as_direct_base(repro_modules):
    # SUB001 and SCH001 recognise a fault model by a base literally named
    # ``FaultModel``; a deeper subclass would escape both rules.
    from repro.network.faults import FaultModel

    assert [cls for cls in subclasses(FaultModel)
            if cls.__module__.startswith("repro.")]
    assert indirect_subclasses(FaultModel, "repro.") == []


class DemoFault:
    pass


class Death(DemoFault):
    pass


class SlowDeath(Death):
    pass


class Thing:
    pass


def test_fault_model_subclasses_are_walked_transitively():
    assert set(subclasses(DemoFault)) == {Death, SlowDeath}
    assert set(subclasses(Death)) == {SlowDeath}
    assert set(subclasses(Thing)) == set()


def test_indirect_fault_model_subclass_is_reported():
    assert indirect_subclasses(DemoFault, __name__) == ["SlowDeath"]


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
