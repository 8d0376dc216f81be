"""§3.3 — the EMAN refinement workflow on a heterogeneous grid.

The SC2003 demonstration: the GrADS workflow scheduler maps the EMAN
refinement components (performance models included) onto a mixed
IA-32 / IA-64 grid, the binder's recompile-at-target design makes the
mixed-ISA mapping legal, and the workflow executes end to end.

The paper reports no numeric table for this section, so the experiment
reports what it demonstrated: per-heuristic estimated makespans, the
chosen schedule, baseline (random / FIFO / HEFT) comparisons, and the
measured makespan of actually executing the chosen schedule — including
the check that both ISAs carry work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..apps.eman import EmanParameters, eman_refinement_workflow
from ..gis.directory import GridInformationService
from ..microgrid.testbed import heterogeneous_testbed
from ..nws.service import NetworkWeatherService
from ..scheduler.executor import WorkflowExecutor
from ..scheduler.heuristics import (
    fifo_schedule,
    heft_schedule,
    random_schedule,
)
from ..scheduler.ranking import build_rank_matrix
from ..scheduler.scheduler import GradsWorkflowScheduler
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from .common import format_table

__all__ = ["EmanResult", "run_eman_demo"]


@dataclass
class EmanResult:
    """Estimated makespans per policy, plus the executed outcome."""

    estimated: Dict[str, float] = field(default_factory=dict)
    chosen_heuristic: str = ""
    measured_makespan: float = 0.0
    isas_used: List[str] = field(default_factory=list)
    resources_used: int = 0

    def to_table(self) -> str:
        rows = [(name, seconds,
                 "<- chosen" if name == self.chosen_heuristic else "")
                for name, seconds in sorted(self.estimated.items(),
                                            key=lambda kv: kv[1])]
        return format_table(
            ["policy", "est. makespan (s)", ""], rows,
            title="EMAN workflow scheduling (heterogeneous IA-32+IA-64 grid)")


def run_eman_demo(params: Optional[EmanParameters] = None,
                  classesbymra_tasks: int = 32,
                  classalign_tasks: int = 16,
                  seed: int = 0,
                  n_random: int = 5,
                  tracer=None) -> EmanResult:
    """Schedule (all policies) and execute the best mapping."""
    params = params if params is not None else EmanParameters()
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
        tracer.instant("meta", "run", experiment="eman", seed=seed)
    grid = heterogeneous_testbed(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid)
    workflow = eman_refinement_workflow(
        params, classesbymra_tasks=classesbymra_tasks,
        classalign_tasks=classalign_tasks)
    # Input data (micrograph stack) lives at the IA-32 head node.
    data_sources = {"proc3d": ["ia32.n0"], "classesbymra": ["ia32.n0"]}

    scheduler = GradsWorkflowScheduler(gis, nws)
    grads_result = scheduler.schedule(workflow, data_sources=data_sources)
    result = EmanResult()
    result.estimated.update(grads_result.makespans())
    result.chosen_heuristic = grads_result.best.heuristic

    matrix = build_rank_matrix(workflow, gis, nws,
                               data_sources=data_sources)
    result.estimated["fifo"] = fifo_schedule(workflow, matrix, nws).makespan
    result.estimated["heft"] = heft_schedule(workflow, matrix, nws).makespan
    rng = RngRegistry(seed=seed).stream("eman-random")
    random_spans = [random_schedule(workflow, matrix, nws, rng).makespan
                    for _ in range(n_random)]
    result.estimated["random(mean)"] = (sum(random_spans)
                                        / max(len(random_spans), 1))

    executor = WorkflowExecutor(sim, grid.topology, gis)
    trace_event = executor.execute(workflow, grads_result.best)
    sim.run(stop_event=trace_event)
    sim.close()
    trace = trace_event.value
    result.measured_makespan = trace.makespan
    used = {t.resource for t in trace.tasks.values()}
    result.resources_used = len(used)
    result.isas_used = sorted({gis.lookup(name).isa
                               for name in sorted(used)})
    return result
