"""Command-line interface: regenerate the paper's experiments.

::

    python -m repro fig3  --sizes 6000,8000,10000
    python -m repro fig4  --policy gang --stats --trace fig4.trace.json
    python -m repro eman
    python -m repro opportunistic
    python -m repro describe path/to/grid.dml
    python -m repro metasched run --users 6 --arrival-rate 0.01 --json
    python -m repro metasched run --n-hosts 64 --max-jobs 200 --json
    python -m repro metasched report stream.json
    python -m repro soak run --minutes 2 --seed 7 --json
    python -m repro soak run --preset mtbf --scenarios 4 --json
    python -m repro soak replay tests/soak/reproducers/foo.json
    python -m repro trace diff a.trace.json b.trace.json
    python -m repro lint --format json

Every experiment subcommand accepts ``--trace PATH`` to export the
run's event timeline as Chrome trace-event JSON (load it in Perfetto
or ``chrome://tracing``).  ``repro trace`` inspects such files:
``validate`` checks the schema, ``summary`` prints per-host
utilization and the violation timeline, ``diff`` pinpoints the first
divergent event between two traces (exit 1 when they diverge).
``repro lint`` runs the determinism linter (``repro.simlint``) over
the tree; a suppression comment is the only way to accept a finding —
see DESIGN.md §5 for the rules and suppression syntax.

Every experiment subcommand also accepts ``--seed N`` (default 0): the
run's randomness, if it has any, derives from ``RngRegistry(N)``, and
two invocations with equal arguments produce identical output —
``--json`` payloads byte-for-byte (each carries ``schema_version``).
``metasched run`` and ``soak run`` also take ``--out PATH`` to save
that report, and their ``report`` subcommands re-render a saved one.

Exit codes: 0 success, 1 experiment/trace/lint failure, 2 bad usage or
an unreadable input file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Optional, Sequence

from . import __version__
from .experiments.eman_demo import run_eman_demo
from .experiments.fig3_qr import DEFAULT_SIZES, run_fig3
from .experiments.fig4_swap import run_fig4
from .experiments.metasched_stream import metasched_tables, run_metasched
from .experiments.opportunistic import run_opportunistic
from .experiments.soak import PRESETS, run_soak, soak_tables
from .experiments.common import JSON_SCHEMA_VERSION, format_table
from .microgrid.dml import parse_grid
from .rescheduling.swapping import SWAP_POLICIES
from .sim.kernel import Simulator
from .sim.stats import format_stats
from .trace import (
    Tracer,
    first_divergence,
    format_divergence,
    load_trace_file,
    summarize,
    validate_chrome,
    write_chrome,
)

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """Bad arguments or unreadable input: ``main`` prints
    ``repro <command>: <message>`` and exits 2."""


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="export the run's event timeline as Chrome trace-event JSON")


def _add_seed_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=0,
        help="experiment seed (default 0); all driver randomness derives "
             "from it and equal seeds give identical output")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit the deterministic report JSON on stdout")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report JSON to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GrADS scheduling/rescheduling reproduction (IPPS 2004)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig3 = sub.add_parser("fig3", help="Figure 3: QR stop/restart sweep")
    fig3.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)),
                      help="comma-separated matrix sizes")
    fig3.add_argument("--nb", type=int, default=200, help="panel width")
    fig3.add_argument("--no-decisions", action="store_true",
                      help="skip the default-mode decision replay")
    _add_seed_option(fig3)
    _add_trace_option(fig3)

    fig4 = sub.add_parser("fig4", help="Figure 4: N-body process swapping")
    fig4.add_argument("--policy", default="gang",
                      choices=sorted(SWAP_POLICIES) + ["none"])
    fig4.add_argument("--iterations", type=int, default=120)
    fig4.add_argument("--stats", action="store_true",
                      help="print kernel/substrate perf counters after the run")
    fig4.add_argument("--json", action="store_true",
                      help="emit the result (progress, swaps, counters) "
                           "as JSON on stdout")
    _add_seed_option(fig4)
    _add_trace_option(fig4)

    eman = sub.add_parser("eman", help="Section 3.3: EMAN workflow demo")
    _add_seed_option(eman)
    _add_trace_option(eman)

    opp = sub.add_parser("opportunistic",
                         help="Section 4.1.1: opportunistic rescheduling")
    opp.add_argument("--disable", action="store_true",
                     help="run the baseline without the daemon")
    _add_seed_option(opp)
    _add_trace_option(opp)

    describe = sub.add_parser("describe",
                              help="validate and summarize a DML topology")
    describe.add_argument("path", help="DML file")

    lint = sub.add_parser(
        "lint", help="simulator-discipline static analysis (simlint); "
                     "exit 1 on any unsuppressed finding")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint "
                           "(default: the installed repro package)")
    lint.add_argument("--format", choices=["text", "json", "github"],
                      default="text",
                      help="report format (default: text); 'github' emits "
                           "GitHub Actions ::error/::warning annotations")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")

    meta = sub.add_parser(
        "metasched", help="multi-tenant submission service: serve a "
                          "synthetic job stream with queueing, admission "
                          "control and advance reservations")
    meta_sub = meta.add_subparsers(dest="metasched_command", required=True)

    mrun = meta_sub.add_parser(
        "run", help="serve one stream; same seed => byte-identical JSON "
                    "(exit 1 on any reservation conflict)")
    mrun.add_argument("--users", type=int, default=4,
                      help="number of synthetic tenants (default 4)")
    mrun.add_argument("--arrival-rate", type=float, default=1 / 120.0,
                      help="aggregate Poisson arrival rate in jobs per "
                           "simulated second (default 1/120)")
    mrun.add_argument("--duration", type=float, default=3600.0,
                      help="arrival window in simulated seconds; jobs "
                           "already queued still run to completion")
    mrun.add_argument("--max-jobs", type=int, default=None,
                      help="cap the stream at exactly this many jobs")
    mrun.add_argument("--max-queue", type=int, default=None,
                      help="admission control: reject when this many jobs "
                           "are already queued")
    mrun.add_argument("--max-per-user", type=int, default=None,
                      help="admission control: per-user queued-job quota")
    mrun.add_argument("--n-hosts", type=int, default=None,
                      help="run on a 4-cluster grid of this many hosts "
                           "instead of the 12-host Figure 3 testbed")
    _add_output_options(mrun)
    _add_seed_option(mrun)
    _add_trace_option(mrun)

    mreport = meta_sub.add_parser(
        "report", help="render a saved stream report as tables "
                       "(exit 1 on any reservation conflict)")
    mreport.add_argument("path", help="report JSON from "
                                      "`metasched run --out`")

    soak = sub.add_parser(
        "soak", help="differential soak harness: randomized composite "
                     "scenarios + cross-subsystem invariant auditors")
    soak_sub = soak.add_subparsers(dest="soak_command", required=True)

    srun = soak_sub.add_parser(
        "run", help="run a seeded scenario sweep; same seed => "
                    "byte-identical JSON (exit 1 on any invariant "
                    "violation)")
    srun.add_argument("--scenarios", type=int, default=None,
                      help="number of scenarios to run (default 50)")
    srun.add_argument("--minutes", type=float, default=None,
                      help="time budget; converted to a deterministic "
                           "scenario count, never wall-clock measured")
    srun.add_argument("--shrink", metavar="DIR", default=None,
                      help="delta-debug each violating scenario into a "
                           "minimal replayable reproducer under DIR")
    srun.add_argument("--preset", choices=sorted(PRESETS),
                      default="sampled",
                      help="scenario sampler: 'sampled' mixes every lane "
                           "(default); 'mtbf' runs a checkpointed QR job "
                           "under MTBF/MTTR host churn")
    _add_output_options(srun)
    _add_seed_option(srun)

    sreplay = soak_sub.add_parser(
        "replay", help="re-run one scenario spec JSON (a shrunk "
                       "reproducer or a sampled spec) with full checks "
                       "(exit 1 on any invariant violation)")
    sreplay.add_argument("path", help="scenario spec JSON, e.g. from "
                                      "`soak run --shrink`")
    sreplay.add_argument("--shrink", metavar="PATH", default=None,
                         help="if the replay violates, shrink it further "
                              "and write the minimal spec to PATH")
    sreplay.add_argument("--json", action="store_true",
                         help="emit the scenario report JSON on stdout")

    sreport = soak_sub.add_parser(
        "report", help="render a saved soak report as tables "
                       "(exit 1 if it recorded any violation)")
    sreport.add_argument("path", help="report JSON from `soak run --out`")

    trace = sub.add_parser("trace", help="inspect exported trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    tdiff = trace_sub.add_parser(
        "diff", help="first divergent event between two traces "
                     "(exit 1 if they diverge)")
    tdiff.add_argument("a", help="first trace (Chrome trace-event JSON)")
    tdiff.add_argument("b", help="second trace")

    tsummary = trace_sub.add_parser(
        "summary", help="per-host utilization, violations, critical path")
    tsummary.add_argument("path", help="Chrome trace-event JSON file")

    tvalidate = trace_sub.add_parser(
        "validate", help="check a file against the Chrome trace-event schema")
    tvalidate.add_argument("path", help="Chrome trace-event JSON file")
    return parser


def _make_tracer(args: argparse.Namespace) -> Optional[Tracer]:
    return Tracer() if getattr(args, "trace", None) else None


def _export(tracer: Optional[Tracer], args: argparse.Namespace) -> None:
    if tracer is not None:
        write_chrome(tracer, args.trace)
        print(f"trace: {len(tracer)} events -> {args.trace}", file=sys.stderr)


def _cmd_fig3(args: argparse.Namespace) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s)
    except ValueError:
        print(f"bad --sizes value: {args.sizes!r}", file=sys.stderr)
        return 2
    if not sizes:
        print("need at least one size", file=sys.stderr)
        return 2
    tracer = _make_tracer(args)
    result = run_fig3(sizes=sizes, nb=args.nb,
                      with_decisions=not args.no_decisions, seed=args.seed,
                      tracer=tracer)
    _export(tracer, args)
    print(result.to_table())
    if not args.no_decisions:
        print()
        print(result.decision_table())
        print(f"\ncrossover size: {result.crossover_size()}")
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    tracer = _make_tracer(args)
    if args.policy == "none":
        result = run_fig4(n_iterations=args.iterations, with_swapping=False,
                          seed=args.seed, tracer=tracer)
    else:
        result = run_fig4(n_iterations=args.iterations, policy=args.policy,
                          seed=args.seed, tracer=tracer)
    _export(tracer, args)
    if args.json:
        payload = {
            "schema_version": JSON_SCHEMA_VERSION,
            "policy": result.policy,
            "finished_at": result.finished_at,
            "swap_times": result.swap_times,
            "swapped_to": result.swapped_to,
            "iterations": (result.progress[-1].iteration
                           if result.progress else 0),
            "stats": result.stats,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(result.to_series())
    print(f"\nswaps: {[round(t, 1) for t in result.swap_times]} "
          f"-> {result.swapped_to}")
    print(f"finished at t={result.finished_at:.1f} s "
          f"(policy: {result.policy})")
    if args.stats:
        print("\nsubstrate counters:")
        print(format_stats(result.stats))
    return 0


def _cmd_eman(args: argparse.Namespace) -> int:
    tracer = _make_tracer(args)
    result = run_eman_demo(seed=args.seed, tracer=tracer)
    _export(tracer, args)
    print(result.to_table())
    print(f"\nexecuted {result.chosen_heuristic}: "
          f"{result.measured_makespan:.1f} s on {result.resources_used} "
          f"resources, ISAs {result.isas_used}")
    return 0


def _cmd_opportunistic(args: argparse.Namespace) -> int:
    tracer = _make_tracer(args)
    result = run_opportunistic(enable=not args.disable, seed=args.seed,
                               tracer=tracer)
    _export(tracer, args)
    print(format_table(
        ["A done (s)", "B done (s)", "B migrations", "B final cluster"],
        [[result.a_finished_at, result.b_finished_at,
          result.b_migrations, result.b_final_cluster]],
        title=("opportunistic daemon "
               + ("off" if args.disable else "on"))))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    sim = Simulator()
    grid = parse_grid(_read("DML file", args.path, _read_text), sim)
    rows = []
    for name, cluster in sorted(grid.clusters.items()):
        rows.append([name, len(cluster), cluster.arch.name,
                     f"{cluster.arch.mflops:.0f}", cluster.arch.isa])
    for name, host in sorted(grid.standalone_hosts.items()):
        rows.append([name, 1, host.arch.name,
                     f"{host.arch.mflops:.0f}", host.arch.isa])
    print(format_table(
        ["cluster/host", "nodes", "arch", "Mflop/s per node", "isa"],
        rows, title=f"{args.path}: {len(grid.all_hosts())} hosts"))
    sim.close()
    return 0


def _load_json(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


def _read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _read(what: str, path: str, load: Callable[[str], Any] = _load_json):
    """``load(path)``; a missing or malformed file is a usage error."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from None


def _emit(payload: Optional[str], args: argparse.Namespace,
          render: Callable[[dict], str]) -> dict:
    """Show one report and return it as a dict.

    ``payload`` is a fresh run's report JSON: it is saved to ``--out``
    and, under ``--json``, printed as is.  ``None`` loads the saved
    report at ``args.path`` (the ``report`` subcommands).  Otherwise the
    tables ``render(report)`` go to stdout.
    """
    if payload is None:
        report = _read("report", args.path)
    else:
        report = json.loads(payload)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(payload + "\n")
            print(f"report -> {args.out}", file=sys.stderr)
        if args.json:
            print(payload)
            return report
    print(render(report))
    return report


def _cmd_lint(args: argparse.Namespace) -> int:
    from . import simlint

    if args.list_rules:
        print(simlint.render_rule_table())
        return 0
    paths = args.paths
    if not paths:
        import repro
        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    try:
        result = simlint.lint_tree(paths)
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from None
    findings = result.findings
    if args.format == "json":
        print(simlint.render_json(findings))
    elif args.format == "github":
        print(simlint.render_github(findings,
                                    display_paths=result.display_paths))
    else:
        print(simlint.render_text(findings))
    return 1 if findings else 0


def _cmd_metasched(args: argparse.Namespace) -> int:
    payload = None
    if args.metasched_command == "run":
        payload = _run_metasched(args)
    report = _emit(payload, args, metasched_tables)
    for conflict in report["conflicts"]:
        print(f"RESERVATION CONFLICT: {conflict}", file=sys.stderr)
    return 1 if report["conflicts"] else 0


def _run_metasched(args: argparse.Namespace) -> str:
    if args.users < 1 or args.arrival_rate <= 0 or args.duration <= 0:
        raise UsageError("need --users >= 1, --arrival-rate > 0 and "
                         "--duration > 0")
    if args.n_hosts is not None and args.n_hosts < 4:
        raise UsageError("--n-hosts must be >= 4 (one host per cluster)")
    for flag in ("max_jobs", "max_queue", "max_per_user"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be >= 1")
    tracer = _make_tracer(args)
    result = run_metasched(
        users=args.users, arrival_rate=args.arrival_rate,
        duration=args.duration, seed=args.seed, max_jobs=args.max_jobs,
        max_queue=args.max_queue, max_per_user=args.max_per_user,
        n_hosts=args.n_hosts, tracer=tracer)
    _export(tracer, args)
    return result.to_json()


def _cmd_soak(args: argparse.Namespace) -> int:
    if args.soak_command == "replay":
        return _replay_soak(args)
    payload = None
    if args.soak_command == "run":
        if args.scenarios is not None and args.scenarios < 1:
            raise UsageError("--scenarios must be >= 1")
        if args.minutes is not None and args.minutes <= 0:
            raise UsageError("--minutes must be positive")
        payload = run_soak(seed=args.seed, scenarios=args.scenarios,
                           minutes=args.minutes, shrink_dir=args.shrink,
                           sampler=PRESETS[args.preset]).to_json()
    report = _emit(payload, args, soak_tables)
    return 1 if report["summary"]["violations"] else 0


def _replay_soak(args: argparse.Namespace) -> int:
    from .soak import (load_reproducer, run_with_checks, shrink_scenario,
                       write_reproducer)
    spec = _read("scenario spec", args.path, load_reproducer)
    result = run_with_checks(spec)
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        status = "quiesced" if result["quiesced"] else "DID NOT QUIESCE"
        print(f"scenario {spec.index} (seed {spec.seed}): {status}, "
              f"{len(result['violations'])} violation(s)")
        for violation in result["violations"]:
            print(f"  [{violation['invariant']}] t={violation['time']}: "
                  f"{violation['detail']}")
    if result["violations"] and args.shrink:
        shrunk = shrink_scenario(spec)
        write_reproducer(shrunk.minimal, args.shrink)
        print(f"minimal reproducer ({shrunk.runs} shrink runs, "
              f"targets {sorted(shrunk.targets)}) -> {args.shrink}",
              file=sys.stderr)
    return 1 if result["violations"] else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "diff":
        divergence = first_divergence(
            _read("trace", args.a, load_trace_file),
            _read("trace", args.b, load_trace_file))
        if divergence is None:
            print("traces are identical")
            return 0
        print(format_divergence(divergence, label_a=args.a, label_b=args.b))
        return 1
    if args.trace_command == "summary":
        print(summarize(_read("trace", args.path, load_trace_file)))
        return 0
    if args.trace_command == "validate":
        obj = _read("trace", args.path)
        problems = validate_chrome(obj)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        n_events = len(obj["traceEvents"])
        print(f"{args.path}: valid Chrome trace ({n_events} events)")
        return 0
    raise ValueError(f"unknown trace command {args.trace_command!r}")


_COMMANDS = {
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "eman": _cmd_eman,
    "opportunistic": _cmd_opportunistic,
    "describe": _cmd_describe,
    "metasched": _cmd_metasched,
    "soak": _cmd_soak,
    "lint": _cmd_lint,
    "trace": _cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyboardInterrupt, SystemExit):
        raise
    except UsageError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (`repro lint --list-rules | head`);
        # exit quietly the way POSIX filters do, parking stdout on
        # devnull so the interpreter's flush-at-exit stays silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        print(f"repro {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
