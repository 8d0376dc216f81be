"""Every function in ``src/repro`` is reached by a run, or declared.

A child interpreter runs the behaviour-contract runs under one
``sys.setprofile`` hook and reports every code object it entered:

* the seven golden CLI cases (``tests/experiments/test_golden_digests.py``);
* the five scripts in ``examples/``;
* ``soak run --preset mtbf --scenarios 4`` and ``soak replay`` of one
  pinned kill reproducer;
* ``trace validate``, ``summary`` and ``diff`` on two exported fig4
  traces, and ``metasched report`` of the saved golden stream;
* ``repro lint`` on two ``src/`` files, in each output format.

The test compares those code objects with every ``def`` that ``ast``
finds under ``src/repro``.  A function that no run reaches must be on
:data:`UNREACHED` with the reason it stays; a declared name that no
longer exists, or that a run now reaches, fails too.  So ``src/`` keeps
only what a run reaches or what the table says it keeps on purpose.

``PYTHONPATH=src:. python tests/test_reach.py OUT.json`` collects the
reached functions by hand.
"""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: the child's wall-time ceiling (s): the runs take about 6 s on a
#: 2-vCPU VM, so this only catches a run that stopped making progress
TIMEOUT = 120

PROTOCOL = "abstract method; the subclasses the runs use override it"
REPR = "__repr__ for debugging; no report prints it"
TYPING = "declared only under TYPE_CHECKING, for type checkers"
INTROSPECTION = ("forecaster introspection that tests/nws and the "
                 "numpy battery oracle read")
FAULT = ("hardened fault path (migration timeout, blacklisting); no "
         "sweep reaches it, tests/rescheduling drives it")
BENCHMARKS = ("reached only from benchmarks/ (EXPERIMENTS.md §3.2: the "
              "model construction and the MicroGrid validation)")
VIOLATION = ("runs only when a soak scenario violates an invariant "
             "(CI replays the known-violation fixture with --shrink)")
PERFBENCH = ("reached by perfbench's metasched-64h stream "
             "(64-host scale grid)")
LINT_FINDING = ("runs only on a lint finding; the shipped tree has none "
                "(tests/simlint drives it)")
DESCRIBE = "`repro describe` of a DML file; tests/test_cli.py drives it"


def only_read_by(where):
    return f"accessor that only {where} reads"


#: qualified name -> why the function stays although no run reaches it
UNREACHED = {
    "repro.binder.binder.BindReport.seconds":
        only_read_by("tests/binder"),
    "repro.cli._cmd_describe": DESCRIBE,
    "repro.cli._read_text": DESCRIBE,
    "repro.microgrid.dml._parse_host":
        DESCRIBE + "; the quickstart's DML has no standalone `host` line",
    "repro.contracts.fuzzy.FuzzyEngine.activations":
        only_read_by("tests/contracts"),
    "repro.contracts.viewer.ContractViewer.n_samples":
        only_read_by("tests/contracts and tests/test_integration.py"),
    "repro.contracts.monitor.ContractMonitor._confirmed_fast": (
        "a run faster than its contract; no sweep's prediction is that "
        "pessimistic, tests/contracts drives it"),
    "repro.rescheduling.rescheduler.Rescheduler._abandon": FAULT,
    "repro.rescheduling.rescheduler.Rescheduler._blacklist_hosts": FAULT,
    "repro.rescheduling.rescheduler.Rescheduler._fault_instant": FAULT,
    "repro.rescheduling.rescheduler.Rescheduler._on_migration_timeout":
        FAULT,
    "repro.experiments.metasched_stream.metasched_scale_grid": PERFBENCH,
    "repro.metasched.reservations.ReservationBook.free_now": PERFBENCH,
    "repro.gis.directory.GridInformationService.__len__":
        only_read_by("tests/gis and tests/appmanager"),
    "repro.gis.directory.GridInformationService.unregister": (
        "the churn and admission tests drive the admission's 'name no "
        "longer resolves' safety check through it"),
    "repro.ibp.depot.Depot.read": (
        "whole-allocation read; SRS reads partitions with read_partial, "
        "tests/rescheduling/test_ibp_redistribution.py reads whole ones"),
    "repro.metasched.reservations.Reservation.__repr__": REPR,
    "repro.microgrid.cluster.Cluster.__iter__":
        only_read_by("tests/microgrid"),
    "repro.microgrid.cluster.Cluster.__len__":
        DESCRIBE + "; tests/microgrid also reads it",
    "repro.microgrid.cluster.Cluster.__repr__": REPR,
    "repro.microgrid.emulation.VirtualClock.__post_init__": BENCHMARKS,
    "repro.microgrid.emulation.VirtualClock.to_emulation": BENCHMARKS,
    "repro.microgrid.emulation.VirtualClock.to_virtual": BENCHMARKS,
    "repro.microgrid.emulation._scaled_arch": BENCHMARKS,
    "repro.microgrid.emulation.dilated_grid": BENCHMARKS,
    "repro.microgrid.host.Host.__repr__": REPR,
    "repro.microgrid.host.Host.background_load":
        only_read_by("tests/microgrid"),
    "repro.microgrid.network.Topology.links":
        BENCHMARKS + "; tests/microgrid/test_routing_oracle.py reads it",
    "repro.mpi.comm.MpiContext.recv": (
        "MPI point-to-point receive; the apps' bodies use collectives, "
        "tests/mpi drives it"),
    "repro.mpi.comm.MpiContext.send": (
        "MPI point-to-point send; the apps' bodies use collectives, "
        "tests/mpi drives it"),
    "repro.mpi.comm.MpiContext.sim": only_read_by("tests/mpi"),
    "repro.nws.forecasting.AdaptiveForecaster.best_method": INTROSPECTION,
    "repro.nws.forecasting.AdaptiveForecaster.errors": INTROSPECTION,
    "repro.nws.forecasting.AdaptiveForecaster.history": INTROSPECTION,
    "repro.nws.forecasting.AdaptiveForecaster.n_samples": INTROSPECTION,
    "repro.nws.forecasting.AdaptiveForecaster.predictions": INTROSPECTION,
    "repro.nws.service.NetworkWeatherService.cpu_forecaster":
        INTROSPECTION,
    "repro.nws.forecasting._raise_lstsq": (
        "LAPACK error callback; runs only if an SVD fails to converge"),
    "repro.perfmodel.construction.InstrumentedRun.__post_init__":
        BENCHMARKS,
    "repro.perfmodel.construction._volume_fn": BENCHMARKS,
    "repro.perfmodel.construction.construct_component_model": BENCHMARKS,
    "repro.perfmodel.construction.suggest_training_sizes": BENCHMARKS,
    "repro.perfmodel.flops.FlopModel.__call__": BENCHMARKS,
    "repro.perfmodel.flops.FlopModel.dominant_degree": BENCHMARKS,
    "repro.perfmodel.flops.FlopModel.mflop": BENCHMARKS,
    "repro.perfmodel.flops.fit_flop_model": BENCHMARKS,
    "repro.perfmodel.flops.nnls": BENCHMARKS,
    "repro.perfmodel.flops.power_law_fit": BENCHMARKS,
    "repro.perfmodel.model.AnalyticComponentModel.input_bytes": (
        "model interface; the scheduler reads the component's own byte "
        "counts, tests/perfmodel reads the model's"),
    "repro.perfmodel.model.AnalyticComponentModel.output_bytes": (
        "model interface; the scheduler reads the component's own byte "
        "counts, tests/perfmodel reads the model's"),
    "repro.perfmodel.model.ComponentModel.cpu_seconds": BENCHMARKS,
    "repro.perfmodel.model.ComponentModel.input_bytes": PROTOCOL,
    "repro.perfmodel.model.ComponentModel.memory_required_bytes": PROTOCOL,
    "repro.perfmodel.model.ComponentModel.memory_seconds": PROTOCOL,
    "repro.perfmodel.model.ComponentModel.mflop": PROTOCOL,
    "repro.perfmodel.model.ComponentModel.output_bytes": PROTOCOL,
    "repro.perfmodel.model.FittedComponentModel.input_bytes": BENCHMARKS,
    "repro.perfmodel.model.FittedComponentModel.memory_required_bytes":
        BENCHMARKS,
    "repro.perfmodel.model.FittedComponentModel.memory_seconds":
        BENCHMARKS,
    "repro.perfmodel.model.FittedComponentModel.mflop": BENCHMARKS,
    "repro.perfmodel.model.FittedComponentModel.output_bytes": BENCHMARKS,
    "repro.perfmodel.mrd.MrdBinModel.__call__": BENCHMARKS,
    "repro.perfmodel.mrd.MrdModel.__init__": BENCHMARKS,
    "repro.perfmodel.mrd.MrdModel.fit": BENCHMARKS,
    "repro.perfmodel.mrd.MrdModel.predict_accesses": BENCHMARKS,
    "repro.perfmodel.mrd.MrdModel.predict_miss_count": BENCHMARKS,
    "repro.perfmodel.mrd.MrdModel.predict_miss_fraction": BENCHMARKS,
    "repro.perfmodel.mrd.ReuseHistogram.from_trace": BENCHMARKS,
    "repro.perfmodel.mrd.ReuseHistogram.miss_fraction": BENCHMARKS,
    "repro.perfmodel.mrd.ReuseHistogram.n_bins": BENCHMARKS,
    "repro.perfmodel.mrd._Fenwick.__init__": BENCHMARKS,
    "repro.perfmodel.mrd._Fenwick.add": BENCHMARKS,
    "repro.perfmodel.mrd._Fenwick.prefix": BENCHMARKS,
    "repro.perfmodel.mrd.reuse_distances": BENCHMARKS,
    "repro.rescheduling.rescheduler.MigratableApp.current_hosts": PROTOCOL,
    "repro.rescheduling.rescheduler.MigratableApp.finished": PROTOCOL,
    "repro.rescheduling.rescheduler.MigratableApp.migrate": PROTOCOL,
    "repro.rescheduling.rescheduler.MigratableApp.migration_cost_estimate":
        PROTOCOL,
    "repro.rescheduling.rescheduler.MigratableApp"
    ".predicted_remaining_seconds": PROTOCOL,
    "repro.rescheduling.rescheduler.MigratableApp.propose_hosts": PROTOCOL,
    "repro.scheduler.workflow.Workflow.__contains__":
        only_read_by("tests/scheduler"),
    "repro.scheduler.workflow.Workflow.__len__":
        only_read_by("tests/scheduler"),
    "repro.sim.events.Event.__repr__": REPR,
    "repro.sim.rng.RngRegistry.__repr__": REPR,
    "repro.sim.stats.KernelStats.__getattr__": TYPING,
    "repro.sim.stats.KernelStats.__setattr__": TYPING,
    "repro.sim.stats.KernelStats.__repr__": REPR,
    "repro.simlint.engine._parse_error": LINT_FINDING,
    "repro.simlint.findings.Finding.location": LINT_FINDING,
    "repro.simlint.report._gh_escape_message": LINT_FINDING,
    "repro.simlint.report._gh_escape_property": LINT_FINDING,
    "repro.simlint.report.render_json.as_dict": LINT_FINDING,
    "repro.simlint.rules._none_checker": (
        "check of the parse-error pseudo-rule, which matches no node"),
    "repro.soak.invariants.Violation.to_dict": VIOLATION,
    "repro.soak.scenario.ScenarioSpec.to_dict": VIOLATION,
    "repro.soak.scenario.ScenarioSpec.to_json": VIOLATION,
    "repro.soak.shrink._clone": VIOLATION,
    "repro.soak.shrink.shrink_scenario": VIOLATION,
    "repro.soak.shrink.shrink_scenario.still_fails": VIOLATION,
    "repro.soak.shrink.violated_invariants": VIOLATION,
    "repro.soak.shrink.write_reproducer": VIOLATION,
    "repro.trace.export.records_as_dicts": only_read_by("tests/trace"),
    "repro.trace.tracer.Instant.__repr__": REPR,
    "repro.trace.tracer.Instant.key": only_read_by("tests/trace"),
    "repro.trace.tracer.Span.__repr__": REPR,
    "repro.trace.tracer.Span.key": only_read_by("tests/trace"),
    "repro.trace.tracer.Tracer.__repr__": REPR,
    "repro.trace.tracer.Tracer.clear": only_read_by("tests/trace"),
    "repro.trace.tracer.Tracer.select": only_read_by("tests/trace"),
}


def collect(out_path):
    """Do the contract runs under one profile hook and write the
    ``[path relative to src/repro, first line]`` of every code object
    entered under ``src/repro`` to ``out_path`` as JSON."""
    import contextlib
    import io
    import runpy
    import tempfile

    from tests.experiments.test_golden_digests import CASES

    seen = set()

    def hook(frame, event, arg, add=seen.add):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(hook)
    from repro.cli import main

    def cli(*args, expect=0):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(list(args))
        if code != expect:
            raise SystemExit(f"repro {' '.join(args)} exited {code}, "
                             f"expected {expect}:\n{err.getvalue()}")

    with tempfile.TemporaryDirectory() as tmp:
        stream = os.path.join(tmp, "metasched.json")
        for _golden, args, _digest in CASES:
            if args[:2] == ["metasched", "run"]:
                args = [*args, "--out", stream]
            cli(*args)
        cli("metasched", "report", stream)
        for script in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(script)]
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(script), run_name="__main__")
        cli("soak", "run", "--preset", "mtbf", "--scenarios", "4")
        cli("soak", "replay", str(ROOT / "tests" / "soak" / "reproducers"
                                  / "kill-crash-recover-churn.json"))
        traces = [os.path.join(tmp, f"fig4-{n}.json") for n in (5, 4)]
        for n, path in zip((5, 4), traces):
            cli("fig4", "--iterations", str(n), "--trace", path)
        cli("fig4", "--iterations", "2", "--stats")
        cli("trace", "validate", traces[0])
        cli("trace", "summary", traces[0])
        cli("trace", "diff", *traces, expect=1)
        # service.py carries suppressions and process generators; the
        # other formats render the same empty finding list
        cli("lint", str(PACKAGE / "metasched" / "service.py"))
        for fmt in ("json", "github"):
            cli("lint", "--format", fmt, str(PACKAGE / "cop" / "cop.py"))
        cli("lint", "--list-rules")
    sys.setprofile(None)

    reached = sorted(
        (os.path.relpath(code.co_filename, PACKAGE), code.co_firstlineno)
        for code in seen if code.co_filename.startswith(str(PACKAGE)))
    Path(out_path).write_text(json.dumps(reached))


def defined_functions():
    """``{qualified name: (path relative to src/repro, first line)}`` of
    every ``def`` under ``src/repro``.  The line is the first
    decorator's, as in the function's ``co_firstlineno``."""
    found = {}

    def walk(node, prefix, relpath):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                line = min([d.lineno for d in child.decorator_list]
                           + [child.lineno])
                assert name not in found, f"{name} is defined twice"
                found[name] = (relpath, line)
                walk(child, name + ".", relpath)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", relpath)
            else:
                walk(child, prefix, relpath)

    for path in sorted(PACKAGE.rglob("*.py")):
        relpath = str(path.relative_to(PACKAGE))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        walk(ast.parse(path.read_text()), module + ".", relpath)
    return found


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    out = tmp_path_factory.mktemp("reach") / "reached.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
    started = time.perf_counter()
    done = subprocess.run([sys.executable, __file__, str(out)], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=TIMEOUT)
    print(f"reach runs: {time.perf_counter() - started:.1f} s")
    assert done.returncode == 0, done.stderr
    return {tuple(key) for key in json.loads(out.read_text())}


@pytest.fixture(scope="module")
def functions():
    return defined_functions()


def test_every_function_reached_or_declared(functions, reached):
    missing = sorted(name for name, key in functions.items()
                     if key not in reached and name not in UNREACHED)
    assert not missing, (
        "no contract run reaches these functions: delete them, or add "
        "each to UNREACHED with the reason it stays:\n  "
        + "\n  ".join(missing))


def test_declared_functions_exist(functions):
    gone = sorted(set(UNREACHED) - set(functions))
    assert not gone, f"declared but no longer defined: {gone}"


def test_declared_functions_stay_unreached(functions, reached):
    now_reached = sorted(name for name in UNREACHED
                         if functions.get(name) in reached)
    assert not now_reached, (
        "declared unreached but a run reaches them; drop them from "
        f"UNREACHED: {now_reached}")


if __name__ == "__main__":
    collect(sys.argv[1])
