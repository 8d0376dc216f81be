"""Tests for the command-line interface."""

import json
import os

import pytest

from repro import __version__
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig3_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.command == "fig3"
        assert "6000" in args.sizes

    def test_fig4_policy_choices(self):
        args = build_parser().parse_args(["fig4", "--policy", "single"])
        assert args.policy == "single"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--policy", "bogus"])

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_experiments_accept_trace_option(self):
        for command in ("fig3", "fig4", "eman", "opportunistic"):
            args = build_parser().parse_args([command, "--trace", "t.json"])
            assert args.trace == "t.json"

    def test_every_experiment_accepts_seed(self):
        # the repo-wide convention: every experiment subcommand takes
        # --seed (default 0)
        for argv in (["fig3"], ["fig4"], ["eman"], ["opportunistic"],
                     ["metasched", "run"]):
            args = build_parser().parse_args(argv)
            assert args.seed == 0, argv
            args = build_parser().parse_args(argv + ["--seed", "7"])
            assert args.seed == 7, argv

    def test_trace_group_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_metasched_group_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metasched"])


class TestCommands:
    def test_fig3_small(self, capsys):
        rc = main(["fig3", "--sizes", "4000", "--no-decisions"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "no-reschedule" in out

    def test_fig3_bad_sizes(self, capsys):
        assert main(["fig3", "--sizes", "abc"]) == 2
        assert main(["fig3", "--sizes", ""]) == 2

    def test_fig4_none_policy(self, capsys):
        rc = main(["fig4", "--policy", "none", "--iterations", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "policy: none" in out

    def test_opportunistic_disabled(self, capsys):
        rc = main(["opportunistic", "--disable"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "daemon off" in out

    def test_describe(self, tmp_path, capsys):
        dml = tmp_path / "grid.dml"
        dml.write_text("arch a mflops=100\n"
                       "cluster c arch=a hosts=3 nic=100Mb lat=0.1ms\n")
        rc = main(["describe", str(dml)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 hosts" in out
        assert "c" in out

    def test_describe_missing_file(self, capsys):
        assert main(["describe", "/nonexistent/grid.dml"]) == 2

    def test_bench_json(self, capsys):
        rc = main(["bench", "--transfers", "60", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["transfers_completed"] == 60
        assert payload["events_processed"] > 0

    def test_bench_scheduler_json(self, capsys):
        rc = main(["bench", "--scheduler", "--tasks", "8", "--hosts", "4",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["n_hosts"] == 4
        assert set(payload["makespans"]) == {"min-min", "max-min",
                                             "sufferage"}

    @pytest.mark.parametrize("argv", [
        ["--transfers", "-5"],
        ["--transfers", "0"],
        ["--scheduler", "--tasks", "0"],
        ["--scheduler", "--hosts", "2"],
    ])
    def test_bench_bad_sizes_exit_two(self, argv, capsys):
        assert main(["bench"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro bench: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("group", ["metasched", "soak"])
    def test_report_unreadable_input_exits_two(self, group, tmp_path,
                                               capsys):
        assert main([group, "report", str(tmp_path / "missing.json")]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main([group, "report", str(garbage)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"repro {group}: cannot read report") == 2

    @pytest.mark.parametrize("content", [None, "{not json"],
                             ids=["missing", "not-json"])
    @pytest.mark.parametrize("argv", [
        ["trace", "diff", "{bad}", "{bad}"],
        ["trace", "summary", "{bad}"],
        ["trace", "validate", "{bad}"],
        ["lint", "--baseline", "{bad}", "{ok}"],
    ], ids=["trace-diff", "trace-summary", "trace-validate",
            "lint-baseline"])
    def test_unreadable_input_exits_two(self, argv, content, tmp_path,
                                        capsys):
        # exit 1 means "traces diverge" / "lint findings": a typo'd or
        # corrupt input file must not read as either
        bad = tmp_path / "input.json"
        if content is not None:
            bad.write_text(content)
        ok = tmp_path / "clean.py"
        ok.write_text("x = 1\n")
        argv = [a.format(bad=bad, ok=ok) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: cannot read ")
        assert err.count("\n") == 1

    def test_fig4_json(self, capsys):
        rc = main(["fig4", "--policy", "none", "--iterations", "10",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["policy"] == "none"
        assert payload["iterations"] == 10
        assert payload["stats"]["events_processed"] > 0

    def test_uncaught_experiment_error_exits_one(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "run_fig4", boom)
        assert main(["fig4", "--iterations", "5"]) == 1
        err = capsys.readouterr().err
        assert "synthetic failure" in err


class TestMetaschedCommands:
    ARGS = ["metasched", "run", "--users", "3", "--arrival-rate", "0.01",
            "--duration", "900", "--seed", "3"]

    def test_run_tables(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "metasched:" in out
        assert "0 reservation conflicts" in out
        assert "stream summary" in out

    def test_run_json_same_seed_byte_identical(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema_version"] == 1
        assert payload["conflicts"] == []
        assert payload["summary"]["submitted"] == len(payload["jobs"])
        assert payload["counters"]["meta_submitted"] == len(payload["jobs"])

    def test_run_out_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "stream.json"
        assert main(self.ARGS + ["--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["metasched", "report", str(out_path)]) == 0
        assert "stream summary" in capsys.readouterr().out

    def test_run_trace_carries_metasched_lane(self, tmp_path):
        path = tmp_path / "m.trace.json"
        assert main(self.ARGS + ["--trace", str(path)]) == 0
        obj = json.loads(path.read_text())
        cats = {e.get("cat") for e in obj["traceEvents"]}
        assert "metasched" in cats

    def test_run_bad_usage(self, capsys):
        assert main(["metasched", "run", "--users", "0"]) == 2
        assert main(["metasched", "run", "--arrival-rate", "-1"]) == 2
        for flag in ("--max-jobs", "--max-queue", "--max-per-user"):
            for value in ("0", "-1"):
                capsys.readouterr()
                assert main(["metasched", "run", flag, value]) == 2
                err = capsys.readouterr().err
                assert err.count("\n") == 1 and flag in err, err

    def test_report_conflict_exits_one(self, tmp_path, capsys):
        doctored = {
            "schema_version": 1,
            "params": {}, "jobs": [], "counters":
                {"meta_reservations": 0},
            "conflicts": ["h: claims overlap"],
            "summary": {"submitted": 0, "completed": 0, "rejected": 0,
                        "conflicts": 1, "makespan_seconds": 0.0,
                        "throughput_jobs_per_hour": 0.0,
                        "mean_queue_wait_seconds": 0.0,
                        "backfilled": 0, "failed": 0},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doctored))
        assert main(["metasched", "report", str(path)]) == 1


class TestSoakCommands:
    ARGS = ["soak", "run", "--scenarios", "3", "--seed", "7"]
    SOAK_DIR = os.path.join(os.path.dirname(__file__), "soak")
    FIXTURE = os.path.join(SOAK_DIR, "fixtures", "known_violation.json")

    def test_run_json_same_seed_byte_identical(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema_version"] == 1
        assert payload["summary"]["violations"] == 0
        assert payload["summary"]["scenarios"] == 3

    def test_run_out_and_report(self, tmp_path, capsys):
        out_path = tmp_path / "soak.json"
        assert main(self.ARGS + ["--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["soak", "report", str(out_path)]) == 0
        assert "soak: 3 scenarios" in capsys.readouterr().out

    def test_replay_clean_reproducer(self, capsys):
        rc = main(["soak", "replay",
                   os.path.join(self.SOAK_DIR, "reproducers",
                                "resources-dead-waiters.json")])
        assert rc == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_replay_violating_fixture_shrinks(self, tmp_path, capsys):
        shrunk = tmp_path / "minimal.json"
        assert main(["soak", "replay", self.FIXTURE,
                     "--shrink", str(shrunk)]) == 1
        assert "marker-canary" in capsys.readouterr().out
        # the emitted reproducer must itself replay to the violation
        assert main(["soak", "replay", str(shrunk)]) == 1

    def test_bad_usage(self, tmp_path, capsys):
        assert main(["soak", "run", "--scenarios", "0"]) == 2
        assert main(["soak", "run", "--minutes", "-1"]) == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["soak", "replay", str(garbage)]) == 2


class TestTraceCommands:
    def _export(self, tmp_path, name, iterations=10):
        path = tmp_path / name
        rc = main(["fig4", "--policy", "none",
                   "--iterations", str(iterations), "--trace", str(path)])
        assert rc == 0
        return path

    def test_trace_export_and_validate(self, tmp_path, capsys):
        path = self._export(tmp_path, "t.json")
        capsys.readouterr()
        assert main(["trace", "validate", str(path)]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
        assert main(["trace", "validate", str(bad)]) == 1

    def test_same_seed_diff_is_clean(self, tmp_path, capsys):
        a = self._export(tmp_path, "a.json")
        b = self._export(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_traces_exit_one(self, tmp_path, capsys):
        a = self._export(tmp_path, "a.json", iterations=10)
        b = self._export(tmp_path, "b.json", iterations=12)
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 1
        assert "diverge" in capsys.readouterr().out

    def test_summary(self, tmp_path, capsys):
        path = self._export(tmp_path, "t.json")
        capsys.readouterr()
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "records:" in out
