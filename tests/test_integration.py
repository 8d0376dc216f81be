"""System-level integration tests: the whole stack on the MacroGrid.

These cross-module scenarios are the closest thing to the paper's live
SC2003 demonstrations: multiple managed applications, stochastic
background load, contract monitors feeding one rescheduler, and
scheduled workflows and bound programs — all in one simulation.
"""

import pytest

from repro.sim import AllOf, RngRegistry, Simulator
from repro.microgrid import (
    ScheduledLoad,
    fig3_testbed,
    grads_macrogrid,
)
from repro.appmanager import GradsEnvironment
from repro.apps import (
    EmanParameters,
    QrBenchmark,
    eman_refinement_workflow,
)
from repro.contracts import ContractViewer
from repro.scheduler import GradsWorkflowScheduler, WorkflowExecutor


class TestMacroGridScenarios:
    def test_two_managed_qrs_share_one_rescheduler(self):
        """Two QR apps under one rescheduler; the loaded one migrates,
        the other is left alone."""
        sim = Simulator()
        grid = fig3_testbed(sim)
        env = GradsEnvironment(sim, grid, submission_host="utk.n0")
        run_a, mon_a, resched = env.managed_qr(
            QrBenchmark(n=5000, nb=200),
            initial_hosts=grid.clusters["utk"].host_names(),
            rescheduler_mode="default",
            worst_case_migration_seconds=None)
        run_b, mon_b, resched_b = env.managed_qr(
            QrBenchmark(n=3000, nb=200),
            initial_hosts=grid.clusters["uiuc"].host_names()[:4],
            rescheduler_mode="default",
            worst_case_migration_seconds=None)
        # share the first rescheduler for both monitors
        resched.manage(run_b)
        mon_b.rescheduler = resched.request_handler(run_b)
        ScheduledLoad(host=grid.clusters["utk"][0], at=30.0,
                      nprocs=8).install(sim)
        both = AllOf(sim, [run_a.start(), run_b.start()])
        sim.run(stop_event=both)
        assert run_a.progress == run_a.benchmark.steps
        assert run_b.progress == run_b.benchmark.steps
        assert run_a.migrations >= 1  # loaded cluster abandoned
        assert run_b.migrations == 0  # quiet app untouched

    def test_contract_viewer_captures_live_run(self):
        sim = Simulator()
        grid = fig3_testbed(sim)
        env = GradsEnvironment(sim, grid, submission_host="utk.n0")
        run, monitor, resched = env.managed_qr(
            QrBenchmark(n=4000, nb=200),
            initial_hosts=grid.clusters["utk"].host_names(),
            rescheduler_mode="force-migrate")
        viewer = ContractViewer(monitor)
        ScheduledLoad(host=grid.clusters["utk"][0], at=60.0,
                      nprocs=8).install(sim)
        finished = run.start()
        sim.run(stop_event=finished)
        text = viewer.render()
        assert viewer.n_samples > 10
        assert "migration requested" in text

    def test_workflow_on_stochastically_loaded_macrogrid(self):
        """EMAN over the full MacroGrid with a minute of background load
        on each uh host from a random instant: scheduling consumes NWS
        forecasts shaped by the load, and the execution still completes
        with a sane makespan."""
        sim = Simulator()
        grid = grads_macrogrid(sim)
        env = GradsEnvironment(sim, grid, submission_host="ucsd.n0")
        rng = RngRegistry(seed=99).stream("load")
        for host in grid.clusters["uh"].hosts:
            at = float(rng.uniform(0.0, 60.0))
            ScheduledLoad(host=host, at=at, until=at + 60.0).install(sim)
        sim.run(until=120.0)  # let sensors observe the load pattern
        wf = eman_refinement_workflow(EmanParameters(n_particles=5000),
                                      classesbymra_tasks=24)
        result = GradsWorkflowScheduler(env.gis, env.nws).schedule(wf)
        trace_event = WorkflowExecutor(sim, grid.topology, env.gis).execute(
            wf, result.best)
        sim.run(stop_event=trace_event)
        trace = trace_event.value
        assert len(trace.tasks) == len(wf.tasks())
        assert trace.makespan > 0

    def test_binder_launcher_roundtrip_on_macrogrid(self):
        """Bind a COP across three sites, then start its MPI job after
        the startup synchronization, the way ``QrRun`` launches."""
        from repro.apps import qr_cop
        from repro.binder import MPI_STARTUP_SECONDS
        from repro.mpi import MpiJob
        sim = Simulator()
        grid = grads_macrogrid(sim)
        env = GradsEnvironment(sim, grid, submission_host="ucsd.n0")
        cop = qr_cop(QrBenchmark(n=1000))
        hosts = ["ucsd.n1", "utk-a.n0", "uh.n0"]
        bound = env.binder.bind(cop, hosts)
        sim.run(stop_event=bound)
        assert set(bound.value.per_host_seconds) == set(hosts)
        bound_at = sim.now

        done_marks = []

        def body(ctx):
            yield ctx.compute(50.0)
            done_marks.append(ctx.rank)

        def launch():
            yield sim.timeout(MPI_STARTUP_SECONDS)
            job = MpiJob(sim, grid.topology,
                         [env.gis.host(name) for name in hosts],
                         name=cop.name)
            return sim.now, job.launch(body)

        started = sim.process(launch())
        sim.run(stop_event=started)
        started_at, finished = started.value
        assert started_at == pytest.approx(bound_at + MPI_STARTUP_SECONDS)
        sim.run(stop_event=finished)
        assert sorted(done_marks) == [0, 1, 2]

