"""The ``repro lint`` CLI surface, including the shipped-tree self-check."""

import json
import os
from pathlib import Path

from repro.cli import build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == []
        assert args.format == "text"
        assert args.list_rules is False

    def test_options(self):
        args = build_parser().parse_args(
            ["lint", "src", "--format", "json"])
        assert args.paths == ["src"]
        assert args.format == "json"


class TestFixtureTree:
    def test_exit_1_and_every_rule_fires(self, capsys):
        rc = main(["lint", str(FIXTURES), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        fired = {f["rule"] for f in payload["findings"]}
        assert fired == {"SL000", "SL001", "SL002", "SL003", "SL004",
                         "SL005", "SL006", "SL007", "SL008", "SL009",
                         "SL010"}
        assert payload["count"] == len(payload["findings"])

    def test_text_report_shape(self, capsys):
        rc = main(["lint", str(FIXTURES / "sl001.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "sl001.py:" in out
        assert "SL001 [error]" in out
        assert "hint:" in out
        assert "finding(s)" in out

    def test_missing_path_exits_2(self, capsys):
        assert main(["lint", str(FIXTURES / "no-such-dir")]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SL001", "SL010"):
            assert rule_id in out


class TestEncoding:
    """Files are decoded as the interpreter decodes them (PEP 263)."""

    def test_coding_cookie_is_honoured(self, tmp_path, capsys):
        path = tmp_path / "latin.py"
        path.write_bytes(b"# -*- coding: latin-1 -*-\n"
                         b"GREETING = \"caf\xe9\"\n")
        assert main(["lint", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_undecodable_file_is_one_sl000_finding(self, tmp_path, capsys):
        path = tmp_path / "binary.py"
        path.write_bytes(b"x = 1\ny = \"\xff\"\n")
        assert main(["lint", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert [(f["rule"], f["line"]) for f in payload["findings"]] == [
            ("SL000", 2)]
        assert captured.err == ""  # no traceback, no error line


class TestModuleEntry:
    def test_python_m_repro_lint(self):
        # The one full-tree lint in the suite, through the entry point
        # the CI job invokes.
        import subprocess
        import sys
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--format", "json"],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload == {"count": 0, "findings": [], "version": 2}
