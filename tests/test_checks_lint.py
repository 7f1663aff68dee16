"""Unit tests for the determinism / float-safety lint (repro.checks.engine).

Every rule gets at least one known-bad fixture proving it fires and one
known-good fixture proving it stays quiet, plus pragma-suppression and
whole-tree checks (the committed tree must lint clean — that is the
acceptance criterion CI enforces via ``dftmsn lint src/repro``).
"""

import pathlib

import pytest

from repro.checks.engine import (
    describe_rules,
    is_sim_module,
    lint_paths,
    lint_source,
    module_name_for,
)
from repro.checks.rules import RULES
from repro.harness.cli import main as cli_main

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def rules_of(source, sim_module=False):
    return [f.rule for f in lint_source(source, sim_module=sim_module)]


class TestDet001:
    def test_module_level_random_call_fires(self):
        assert rules_of("import random\nx = random.random()\n") == ["DET001"]

    def test_random_seed_fires(self):
        assert rules_of("import random\nrandom.seed(42)\n") == ["DET001"]

    def test_from_import_fires(self):
        assert rules_of("from random import choice\n") == ["DET001"]

    def test_injected_random_instance_clean(self):
        src = ("import random\n"
               "def f(rng: random.Random) -> float:\n"
               "    return rng.random()\n")
        assert rules_of(src) == []

    def test_random_constructor_clean(self):
        assert rules_of("import random\nr = random.Random(7)\n") == []


class TestDet002:
    def test_time_time_in_sim_module_fires(self):
        assert rules_of("import time\nt = time.time()\n",
                        sim_module=True) == ["DET002"]

    def test_perf_counter_fires(self):
        assert rules_of("import time\nt = time.perf_counter()\n",
                        sim_module=True) == ["DET002"]

    def test_datetime_now_fires(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert rules_of(src, sim_module=True) == ["DET002"]

    def test_outside_sim_packages_clean(self):
        assert rules_of("import time\nt = time.time()\n",
                        sim_module=False) == []

    def test_scheduler_now_clean(self):
        assert rules_of("now = scheduler.now\n", sim_module=True) == []

    def test_path_classification(self):
        assert is_sim_module("src/repro/des/scheduler.py")
        assert is_sim_module("src/repro/network/simulation.py")
        assert is_sim_module("src/repro/network/faults.py")
        assert not is_sim_module("src/repro/harness/cli.py")
        assert not is_sim_module("src/repro/checks/engine.py")

    @pytest.mark.parametrize("path", [
        "src/repro/radio/medium.py",
        "src/repro/mobility/zone.py",
        "src/repro/energy/model.py",
        "src/repro/traffic/generators.py",
        "src/repro/metrics/collector.py",
    ])
    def test_layer_packages_are_sim_modules(self, path):
        # The layers the seeded event loop drives and measures get the
        # sim-only rules (DET002/DET003/SUB001/SCH001) too.
        assert is_sim_module(path)

    def test_individually_enrolled_modules(self):
        # harness/faults.py carries the campaign determinism guarantee
        # and is enrolled via SIM_MODULES despite living outside the
        # simulation packages; serialize.py and runner.py carry the
        # serial-vs-parallel byte-identical guarantee.
        assert is_sim_module("src/repro/harness/faults.py")
        assert is_sim_module("src/repro/harness/serialize.py")
        assert is_sim_module("src/repro/harness/runner.py")
        assert not is_sim_module("src/repro/harness/experiment.py")


class TestDet003:
    def test_for_over_set_call_fires(self):
        assert rules_of("for x in set(items):\n    f(x)\n",
                        sim_module=True) == ["DET003"]

    def test_set_difference_fires(self):
        # The committed-code case this rule flushed out:
        # contact/detector.py iterated ``set(active) - current``.
        assert rules_of("for p in set(active) - current:\n    f(p)\n",
                        sim_module=True) == ["DET003"]

    def test_comprehension_over_set_literal_fires(self):
        assert rules_of("ys = [y for y in {1, 2, 3}]\n",
                        sim_module=True) == ["DET003"]

    def test_sorted_set_clean(self):
        assert rules_of("for x in sorted(set(items)):\n    f(x)\n",
                        sim_module=True) == []

    def test_list_iteration_clean(self):
        assert rules_of("for x in [1, 2]:\n    f(x)\n",
                        sim_module=True) == []


class TestFlt001:
    def test_fractional_float_literal_fires(self):
        # The motivating case: metrics/stats.py:78 rejected
        # 0.9500000000000001 from caller arithmetic via ``!= 0.95``.
        assert rules_of("if confidence != 0.95:\n    raise ValueError\n") \
            == ["FLT001"]

    def test_prob_named_pair_fires(self):
        assert rules_of("same = ftd == other_ftd\n") == ["FLT001"]

    def test_prob_name_against_integral_float_fires(self):
        assert rules_of("done = xi == 1.0\n") == ["FLT001"]

    def test_integer_comparison_clean(self):
        assert rules_of("if count == 3:\n    pass\n") == []

    def test_string_comparison_clean(self):
        assert rules_of("if xi_multicast_rule == 'best':\n    pass\n") == []

    def test_ordering_comparison_clean(self):
        assert rules_of("ok = gamma <= threshold\n") == []


class TestMut001:
    def test_list_default_fires(self):
        assert rules_of("def f(xs=[]):\n    return xs\n") == ["MUT001"]

    def test_dict_constructor_default_fires(self):
        assert rules_of("def f(m=dict()):\n    return m\n") == ["MUT001"]

    def test_none_default_clean(self):
        assert rules_of("def f(xs=None):\n    return xs\n") == []

    def test_tuple_default_clean(self):
        assert rules_of("def f(xs=()):\n    return xs\n") == []


class TestPragma:
    def test_line_pragma_suppresses(self):
        src = "import time\nt = time.time()  # lint: disable=DET002\n"
        assert rules_of(src, sim_module=True) == []

    def test_pragma_is_rule_specific(self):
        src = "import time\nt = time.time()  # lint: disable=DET001\n"
        assert rules_of(src, sim_module=True) == ["DET002"]

    def test_disable_all(self):
        src = "x = random.random()  # lint: disable=all\n"
        assert rules_of(src) == []

    def test_multiple_ids_in_one_pragma(self):
        src = ("import time\n"
               "t = time.time() or random.random()"
               "  # lint: disable=DET001, DET002\n")
        assert rules_of(src, sim_module=True) == []

    def test_trailing_justification_not_swallowed(self):
        # The id list must stop at the first non-id token, so the
        # justification text neither breaks parsing nor reads as an id.
        src = ("import time\n"
               "t = time.time()  # lint: disable=DET002 (wall metric)\n")
        assert rules_of(src, sim_module=True) == []

    def test_two_pragmas_in_one_comment(self):
        src = ("import time\n"
               "t = time.time() or random.random()"
               "  # lint: disable=DET001 ok; lint: disable=DET002\n")
        assert rules_of(src, sim_module=True) == []

    def test_unknown_rule_id_is_a_finding(self):
        src = "x = 1  # lint: disable=DET0003\n"
        findings = lint_source(src, sim_module=True)
        assert [f.rule for f in findings] == ["PRG001"]
        assert "DET0003" in findings[0].message
        assert findings[0].line == 1

    def test_typo_neither_suppresses_nor_passes_silently(self):
        # The misspelled id suppresses nothing (DET002 still fires) and
        # is itself reported.
        src = "import time\nt = time.time()  # lint: disable=DET0002\n"
        assert sorted(rules_of(src, sim_module=True)) == ["DET002", "PRG001"]

    def test_valid_and_bogus_ids_mixed(self):
        src = ("import time\n"
               "t = time.time()  # lint: disable=DET002,BOGUS\n")
        assert rules_of(src, sim_module=True) == ["PRG001"]

    def test_prg001_suppressible_itself(self):
        src = "x = 1  # lint: disable=PRG001, BOGUS\n"
        assert rules_of(src) == []

    def test_pragma_text_in_docstring_ignored(self):
        # Documentation *describing* the pragma syntax must not parse
        # as a pragma (tokenize-based comment extraction).
        src = ('"""Use ``# lint: disable=NOSUCHRULE`` to suppress."""\n'
               "x = 1\n")
        assert rules_of(src) == []

    def test_pragma_on_other_line_does_not_suppress(self):
        src = ("# lint: disable=DET002\n"
               "import time\n"
               "t = time.time()\n")
        assert rules_of(src, sim_module=True) == ["DET002"]


class TestModuleNames:
    def test_walks_init_chain(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "models.py").write_text("x = 1\n")
        assert module_name_for(package / "models.py") == "pkg.models"
        assert module_name_for(package / "__init__.py") == "pkg"

    def test_bare_file_keeps_stem(self, tmp_path):
        lone = tmp_path / "script.py"
        lone.write_text("x = 1\n")
        assert module_name_for(lone) == "script"


class TestEngine:
    def test_every_rule_has_id_and_doc(self):
        ids = [r.rule_id for r in RULES]
        assert len(ids) == len(set(ids)) and all(ids)
        assert all(r.__doc__ and r.rule_id in r.__doc__ for r in RULES)
        catalogue = describe_rules()
        assert all(r.rule_id in catalogue for r in RULES)

    def test_committed_tree_lints_clean(self):
        findings = lint_paths([str(REPO_SRC)])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_cli_exit_codes(self, tmp_path, capsys):
        assert cli_main(["lint", str(REPO_SRC)]) == 0
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrandom.seed(1)\n")
        assert cli_main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "bad.py" in out

    def test_overlapping_paths_lint_each_file_once(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrandom.seed(1)\n")
        findings = lint_paths([str(tmp_path), str(bad)])
        assert [f.rule for f in findings] == ["DET001"]

    def test_cli_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        assert "FLT001" in capsys.readouterr().out
