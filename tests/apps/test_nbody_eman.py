"""Tests for the N-body app (with swap rescheduling) and the EMAN workflow."""

import pytest

from repro.sim import Simulator
from repro.microgrid import ScheduledLoad, fig4_testbed, heterogeneous_testbed
from repro.gis import GridInformationService
from repro.nws import NetworkWeatherService
from repro.apps import (
    EMAN_STAGES,
    EmanParameters,
    NBodySimulation,
    eman_refinement_workflow,
    nbody_step_mflop,
)
from repro.rescheduling import SwapRescheduler
from repro.scheduler import GradsWorkflowScheduler
from tests.oracles.graphs import reference_generations, workflow_digraph


def nbody_env(n_bodies=9000, n_iterations=30, cpu_period=5.0):
    """The Figure 4 setup: pool = 3 UTK (active) + 3 UIUC (inactive)."""
    sim = Simulator()
    grid = fig4_testbed(sim)
    nws = NetworkWeatherService(sim, grid, cpu_period=cpu_period)
    pool = grid.clusters["utk"].hosts + grid.clusters["uiuc"].hosts
    app = NBodySimulation(sim, grid.topology, pool, active_n=3,
                          n_bodies=n_bodies, n_iterations=n_iterations)
    return sim, grid, nws, app


class TestNBody:
    def test_validation(self):
        sim, grid, nws, _ = nbody_env()
        with pytest.raises(ValueError):
            NBodySimulation(sim, grid.topology,
                            grid.clusters["utk"].hosts, 2, 0, 10)
        with pytest.raises(ValueError):
            nbody_step_mflop(-1)

    def test_progress_recorded_per_iteration(self):
        sim, grid, nws, app = nbody_env(n_iterations=10)
        done = app.launch()
        sim.run(stop_event=done)
        assert len(app.progress) == 10
        assert [p.iteration for p in app.progress] == list(range(1, 11))
        times = [p.time for p in app.progress]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_double_launch_rejected(self):
        sim, grid, nws, app = nbody_env(n_iterations=2)
        app.launch()
        with pytest.raises(RuntimeError):
            app.launch()

    def test_load_slows_progress_without_swapping(self):
        sim, grid, nws, app = nbody_env(n_iterations=60)
        ScheduledLoad(host=grid.clusters["utk"][0], at=80.0,
                      nprocs=2).install(sim)
        done = app.launch()
        sim.run(stop_event=done)
        gaps = [b.time - a.time
                for a, b in zip(app.progress, app.progress[1:])]
        early = gaps[1]
        late = gaps[-1]
        assert late > early * 2  # one loaded rank gates every iteration

    def test_swap_rescheduler_recovers_progress(self):
        """The Figure 4 scenario end to end: load at t=80 on one UTK
        node, swap rescheduler moves work to UIUC, slope recovers."""
        sim, grid, nws, app = nbody_env(n_iterations=40)
        ScheduledLoad(host=grid.clusters["utk"][0], at=80.0,
                      nprocs=2).install(sim)
        resched = SwapRescheduler(sim, app.job, nws, policy="greedy",
                                  period=10.0, improvement=1.1)
        resched.start()
        done = app.launch()
        sim.run(stop_event=done)
        assert app.job.swap_log  # at least the loaded node was replaced
        swapped_away = {r.old_host for r in app.job.swap_log}
        assert "utk.n0" in swapped_away
        # after the swap, iteration gaps return near the pre-load pace
        gaps = [b.time - a.time
                for a, b in zip(app.progress, app.progress[1:])]
        early = gaps[1]
        assert gaps[-1] < early * 2.0

    def test_swap_beats_no_swap(self):
        def run(with_swap):
            sim, grid, nws, app = nbody_env(n_iterations=40)
            ScheduledLoad(host=grid.clusters["utk"][0], at=80.0,
                          nprocs=2).install(sim)
            if with_swap:
                SwapRescheduler(sim, app.job, nws, policy="greedy",
                                period=10.0, improvement=1.1).start()
            done = app.launch()
            sim.run(stop_event=done)
            return sim.now

        assert run(True) < run(False)


class TestSwapPolicies:
    def test_policy_validation(self):
        sim, grid, nws, app = nbody_env()
        with pytest.raises(ValueError):
            SwapRescheduler(sim, app.job, nws, policy="ghost")
        with pytest.raises(ValueError):
            SwapRescheduler(sim, app.job, nws, period=0.0)
        with pytest.raises(ValueError):
            SwapRescheduler(sim, app.job, nws, improvement=0.5)

    def test_no_swaps_when_balanced(self):
        sim, grid, nws, app = nbody_env()
        resched = SwapRescheduler(sim, app.job, nws, policy="greedy",
                                  improvement=1.05)
        # UTK 550 MHz active vs UIUC 450 MHz inactive: no idle machine
        # beats an unloaded active one.
        assert resched.check_and_swap() == []

    def test_single_policy_swaps_one_at_a_time(self):
        sim, grid, nws, app = nbody_env(cpu_period=1.0)
        for host in grid.clusters["utk"]:
            host.add_background_load(3)
        sim.run(until=30.0)  # let CPU sensors observe the load
        resched = SwapRescheduler(sim, app.job, nws, policy="single",
                                  improvement=1.1)
        decisions = resched.check_and_swap()
        assert len(decisions) == 1

    def test_greedy_policy_swaps_all_loaded(self):
        sim, grid, nws, app = nbody_env(cpu_period=1.0)
        for host in grid.clusters["utk"]:
            host.add_background_load(3)
        sim.run(until=30.0)
        resched = SwapRescheduler(sim, app.job, nws, policy="greedy",
                                  improvement=1.1)
        decisions = resched.check_and_swap()
        assert len(decisions) == 3

    def test_threshold_policy_ignores_small_gains(self):
        sim, grid, nws, app = nbody_env(cpu_period=1.0)
        grid.clusters["utk"][0].add_background_load(1)  # 2x slowdown only
        sim.run(until=30.0)
        resched = SwapRescheduler(sim, app.job, nws, policy="threshold",
                                  improvement=3.0)
        assert resched.check_and_swap() == []

    def test_pending_swaps_block_new_decisions(self):
        sim, grid, nws, app = nbody_env(cpu_period=1.0)
        grid.clusters["utk"][0].add_background_load(5)
        sim.run(until=30.0)
        resched = SwapRescheduler(sim, app.job, nws, policy="greedy",
                                  improvement=1.1)
        first = resched.check_and_swap()
        assert first
        assert resched.check_and_swap() == []  # queued swap not yet applied


class TestEman:
    def test_workflow_shape(self):
        wf = eman_refinement_workflow(EmanParameters())
        assert [c.name for c in wf.components()] == list(EMAN_STAGES)
        generations = reference_generations(workflow_digraph(wf))
        assert len(generations) == len(EMAN_STAGES)  # strictly linear graph

    def test_classesbymra_dominates(self):
        params = EmanParameters()
        total = sum(getattr(params, f"{s}_mflop")() for s in
                    ("proc3d", "project3d", "classesbymra", "classalign2",
                     "make3d", "eotest"))
        assert params.classesbymra_mflop() / total > 0.8

    def test_parallel_stages_expand(self):
        wf = eman_refinement_workflow(EmanParameters(),
                                      classesbymra_tasks=32,
                                      classalign_tasks=16, project_tasks=4)
        assert len(wf.tasks()) == 1 + 4 + 32 + 16 + 1 + 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EmanParameters(n_particles=0)
        with pytest.raises(ValueError):
            eman_refinement_workflow(EmanParameters(), classesbymra_tasks=0)

    def test_schedules_on_heterogeneous_grid(self):
        sim = Simulator()
        grid = heterogeneous_testbed(sim)
        gis = GridInformationService()
        gis.register_grid(grid)
        nws = NetworkWeatherService(sim, grid)
        wf = eman_refinement_workflow(EmanParameters(n_particles=5000))
        result = GradsWorkflowScheduler(gis, nws).schedule(wf)
        assert result.best.makespan > 0
        # the heavy classesbymra tasks use the fast IA-64 nodes too
        resources = {p.resource for p in result.best.placements.values()
                     if p.task.component.name == "classesbymra"}
        assert any(r.startswith("ia64.") for r in resources)
