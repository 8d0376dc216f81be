#!/usr/bin/env python
"""Scheduling a LIGO-style pulsar search across the whole MacroGrid.

Section 3 names the LIGO pulsar search as a canonical Grid workflow.
This example builds the pipeline (frame extraction -> SFTs -> the
embarrassingly parallel demodulated search -> sifting -> coincidence),
pins the raw interferometer frames at UCSD, and lets the GrADS workflow
scheduler place the stages across all six MacroGrid clusters — showing
data-aware entry placement and wide fan-out in one run.
"""

from repro.sim import Simulator
from repro.microgrid import grads_macrogrid
from repro.gis import GridInformationService
from repro.nws import NetworkWeatherService
from repro.apps import LigoParameters, ligo_pulsar_search_workflow
from repro.scheduler import GradsWorkflowScheduler, WorkflowExecutor


def main() -> None:
    sim = Simulator()
    grid = grads_macrogrid(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid)

    params = LigoParameters(observation_hours=10.0, n_sky_points=500,
                            n_frequency_bands=20)
    workflow = ligo_pulsar_search_workflow(params, search_tasks=40)
    print(f"pulsar search: {params.n_sfts} SFTs, "
          f"{params.n_sky_points * params.n_frequency_bands} templates, "
          f"{workflow.total_mflop():.0f} Mflop total "
          f"({100 * params.pulsar_search_mflop() / workflow.total_mflop():.0f}% "
          f"in the search stage)")

    result = GradsWorkflowScheduler(gis, nws).schedule(
        workflow, data_sources={"frame_extract": ["ucsd.n0"]})
    print(f"\nchosen heuristic: {result.best.heuristic} "
          f"(estimated makespan {result.best.makespan:.1f} s)")
    entry = result.best.placements["frame_extract[0]"].resource
    print(f"frame extraction placed at {entry} (data lives at ucsd.n0)")

    trace_event = WorkflowExecutor(sim, grid.topology, gis).execute(
        workflow, result.best)
    sim.run(stop_event=trace_event)
    trace = trace_event.value
    by_site = {}
    for task in trace.tasks.values():
        site = task.resource.split(".")[0]
        by_site[site] = by_site.get(site, 0) + 1
    print(f"\nmeasured makespan: {trace.makespan:.1f} s")
    print("tasks per site:",
          ", ".join(f"{site}={count}" for site, count
                    in sorted(by_site.items())))


if __name__ == "__main__":
    main()
