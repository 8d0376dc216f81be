"""Tests for workflow execution on the live grid."""

import pytest

from repro.sim import Simulator
from repro.microgrid import fig3_testbed
from repro.gis import GridInformationService
from repro.nws import NetworkWeatherService
from repro.perfmodel import AnalyticComponentModel
from repro.scheduler import (
    GradsWorkflowScheduler,
    Workflow,
    WorkflowComponent,
    WorkflowExecutor,
    build_rank_matrix,
    min_min,
)


def env():
    sim = Simulator()
    grid = fig3_testbed(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid)
    return sim, grid, gis, nws


def comp(name, mflop_total=373.2, n_tasks=1, in_bytes=0.0):
    return WorkflowComponent(
        name=name,
        model=AnalyticComponentModel(mflop_fn=lambda n, m=mflop_total: m),
        problem_size=1.0,
        n_tasks=n_tasks,
        input_bytes_per_task=in_bytes,
    )


def pipeline():
    wf = Workflow("pipe")
    wf.add_component(comp("a"))
    wf.add_component(comp("b", n_tasks=4, mflop_total=4 * 373.2))
    wf.add_component(comp("c"))
    wf.add_dependence("a", "b")
    wf.add_dependence("b", "c")
    return wf


class TestExecutor:
    def test_execution_completes_with_trace(self):
        sim, grid, gis, nws = env()
        wf = pipeline()
        schedule = GradsWorkflowScheduler(gis, nws).schedule(wf).best
        executor = WorkflowExecutor(sim, grid.topology, gis)
        ev = executor.execute(wf, schedule)
        sim.run(stop_event=ev)
        trace = ev.value
        assert len(trace.tasks) == 6
        assert trace.makespan > 0

    def test_execution_respects_dependences(self):
        sim, grid, gis, nws = env()
        wf = pipeline()
        schedule = GradsWorkflowScheduler(gis, nws).schedule(wf).best
        executor = WorkflowExecutor(sim, grid.topology, gis)
        ev = executor.execute(wf, schedule)
        sim.run(stop_event=ev)
        trace = ev.value
        a_done = trace.tasks["a[0]"].finished_at
        c_start = trace.tasks["c[0]"].started_at
        for i in range(4):
            b = trace.tasks[f"b[{i}]"]
            assert b.started_at >= a_done - 1e-9
            assert c_start >= b.finished_at - 1e-9

    def test_measured_close_to_estimated_on_idle_grid(self):
        """On an unloaded grid, achieved makespan tracks the estimate
        (within transfer modelling slop)."""
        sim, grid, gis, nws = env()
        wf = pipeline()
        schedule = GradsWorkflowScheduler(gis, nws).schedule(wf).best
        executor = WorkflowExecutor(sim, grid.topology, gis)
        ev = executor.execute(wf, schedule)
        sim.run(stop_event=ev)
        assert ev.value.makespan == pytest.approx(schedule.makespan, rel=0.25)

    def test_data_transfers_charged(self):
        sim, grid, gis, nws = env()
        wf = Workflow("data")
        wf.add_component(comp("src"))
        wf.add_component(comp("dst", in_bytes=50e6))
        wf.add_dependence("src", "dst")
        matrix = build_rank_matrix(wf, gis, nws)
        schedule = min_min(wf, matrix, nws)
        # Force the two tasks onto different clusters to exercise the WAN.
        from repro.scheduler import Placement, Task
        src_task = wf.tasks()[0]
        dst_task = wf.tasks()[1]
        schedule.placements["src[0]"] = Placement(
            task=src_task, resource="utk.n0", est_start=0, est_finish=1)
        schedule.placements["dst[0]"] = Placement(
            task=dst_task, resource="uiuc.n0", est_start=1, est_finish=2)
        executor = WorkflowExecutor(sim, grid.topology, gis)
        ev = executor.execute(wf, schedule)
        sim.run(stop_event=ev)
        trace = ev.value
        # 50 MB over the 5 MB/s WAN: at least 10 s of data wait
        assert trace.tasks["dst[0]"].data_wait_seconds >= 10.0

    def test_incomplete_schedule_rejected(self):
        sim, grid, gis, nws = env()
        wf = pipeline()
        from repro.scheduler import Schedule
        empty = Schedule(heuristic="none")
        executor = WorkflowExecutor(sim, grid.topology, gis)
        with pytest.raises(ValueError):
            executor.execute(wf, empty)
