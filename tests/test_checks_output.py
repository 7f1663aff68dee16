"""Tests for the lint output formats and the lint CLI gate."""

import json

import pytest

from repro.checks.output import format_json, format_text
from repro.checks.rules.base import Finding
from repro.harness.cli import main as cli_main

FINDINGS = [
    Finding("src/a.py", 3, 4, "DET001", "call to module-level random"),
    Finding("src/b.py", 1, 0, "OBS001", "unguarded emit"),
]


class TestFormats:
    def test_text_is_clickable_lines(self):
        text = format_text(FINDINGS)
        assert text.splitlines() == [
            "src/a.py:3:4: DET001 call to module-level random",
            "src/b.py:1:0: OBS001 unguarded emit",
        ]

    def test_json_shape(self):
        payload = json.loads(format_json(FINDINGS))
        assert payload[0] == {
            "path": "src/a.py", "line": 3, "col": 4, "rule": "DET001",
            "message": "call to module-level random",
        }


class TestCli:
    def make_bad_tree(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nrandom.seed(1)\n")
        return bad

    def test_json_format(self, tmp_path, capsys):
        self.make_bad_tree(tmp_path)
        assert cli_main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "DET001"

    @pytest.mark.parametrize("flags", [
        ["--format", "sarif"],
        ["--baseline", "lint-baseline.json"],
        ["--write-baseline", "lint-baseline.json"],
        ["--fix"],
    ])
    def test_removed_front_end_flags_rejected(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            cli_main(["lint", str(tmp_path), *flags])
        assert exc.value.code == 2
