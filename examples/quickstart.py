#!/usr/bin/env python
"""Quickstart: build a virtual grid, schedule a workflow, run it.

This walks the core GrADS loop in ~60 lines:

1. describe a grid in DML and build it;
2. stand up the information services (GIS + NWS);
3. declare a small workflow with performance models;
4. let the GrADS scheduler pick a mapping (min-min / max-min /
   sufferage, best makespan wins);
5. execute the schedule on the simulated grid and compare the
   estimated makespan against the measured one.
"""

from repro.sim import Simulator
from repro.microgrid import parse_grid
from repro.gis import GridInformationService
from repro.nws import NetworkWeatherService
from repro.perfmodel import AnalyticComponentModel
from repro.scheduler import (
    GradsWorkflowScheduler,
    Workflow,
    WorkflowComponent,
    WorkflowExecutor,
)

GRID_DML = """
arch fast mflops=400 isa=ia32 cache=512KB
arch slow mflops=150 isa=ia32 cache=256KB
cluster alpha arch=fast hosts=4 nic=1Gb   lat=0.1ms
cluster beta  arch=slow hosts=8 nic=100Mb lat=0.1ms
link alpha beta bw=10MB lat=5ms
"""


def main() -> None:
    sim = Simulator()
    grid = parse_grid(GRID_DML, sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid)

    # A fan-out workflow: preprocess -> 12 parallel analyses -> merge.
    workflow = Workflow("quickstart")
    for name, mflop, n_tasks in (("preprocess", 2_000.0, 1),
                                 ("analyze", 48_000.0, 12),
                                 ("merge", 1_000.0, 1)):
        workflow.add_component(WorkflowComponent(
            name=name,
            model=AnalyticComponentModel(mflop_fn=lambda n, m=mflop: m),
            problem_size=1.0,
            n_tasks=n_tasks,
            input_bytes_per_task=2e6,
        ))
    workflow.add_dependence("preprocess", "analyze")
    workflow.add_dependence("analyze", "merge")

    result = GradsWorkflowScheduler(gis, nws).schedule(workflow)
    print("candidate makespans (s):")
    for heuristic, seconds in sorted(result.makespans().items()):
        marker = "  <- chosen" if heuristic == result.best.heuristic else ""
        print(f"  {heuristic:10s} {seconds:8.1f}{marker}")

    trace_event = WorkflowExecutor(sim, grid.topology, gis).execute(
        workflow, result.best)
    sim.run(stop_event=trace_event)
    trace = trace_event.value
    print(f"\nexecuted on the grid: measured makespan "
          f"{trace.makespan:.1f} s (estimated {result.best.makespan:.1f} s)")
    used = sorted({t.resource for t in trace.tasks.values()})
    print(f"resources used ({len(used)}): {', '.join(used)}")


if __name__ == "__main__":
    main()
