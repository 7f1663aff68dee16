"""Fixture tests for the SUB and REG rule families.

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
