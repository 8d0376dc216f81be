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
        assert args.baseline is None

    def test_options(self):
        args = build_parser().parse_args(
            ["lint", "src", "--format", "json", "--baseline", "b.json",
             "--select", "SL001,SL003", "--ignore", "SL008"])
        assert args.paths == ["src"]
        assert args.format == "json"
        assert args.select == "SL001,SL003"
        assert args.ignore == "SL008"


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

    def test_select_and_ignore(self, capsys):
        rc = main(["lint", str(FIXTURES), "--format", "json",
                   "--select", "SL002"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"SL002"}

        rc = main(["lint", str(FIXTURES / "sl002.py"), "--format", "json",
                   "--ignore", "SL002"])
        assert rc == 0

    def test_unknown_rule_exits_2(self, capsys):
        # SL020 is a deleted rule id: it must fail loudly, not select
        # nothing.
        for rule_id in ("SL999", "SL020"):
            assert main(["lint", "--select", rule_id]) == 2
            err = capsys.readouterr().err
            assert f"unknown rule {rule_id!r}" in err
            assert "(known: SL000, SL001," in err

    def test_missing_path_exits_2(self, capsys):
        assert main(["lint", str(FIXTURES / "no-such-dir")]) == 2

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SL001", "SL010"):
            assert rule_id in out


class TestBaselineFlow:
    def test_write_then_lint_with_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        rc = main(["lint", str(FIXTURES / "sl004.py"),
                   "--write-baseline", str(baseline)])
        assert rc == 0
        assert baseline.is_file()
        capsys.readouterr()

        rc = main(["lint", str(FIXTURES / "sl004.py"),
                   "--baseline", str(baseline)])
        assert rc == 0
        assert "grandfathered by baseline" in capsys.readouterr().out

    def test_json_report_carries_grandfathered(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main(["lint", str(FIXTURES / "sl009.py"),
              "--write-baseline", str(baseline)])
        capsys.readouterr()
        rc = main(["lint", str(FIXTURES / "sl009.py"),
                   "--baseline", str(baseline), "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["grandfathered"]


class TestModuleEntry:
    def test_python_m_repro_lint(self):
        # The one full-tree lint in the suite, through the entry point
        # the CI job invokes.  The shipped baseline is empty, so
        # "clean with the baseline" means clean.
        baseline = REPO_ROOT / "simlint-baseline.json"
        assert json.loads(baseline.read_text())["findings"] == {}
        import subprocess
        import sys
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--format", "json",
             "--baseline", str(baseline)],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["grandfathered"] == []
