"""The GrADS application manager and execution environment.

The right-hand side of Figure 1 as one object: given a virtual grid, it
assembles the information services (GIS, NWS), the program-preparation
services (software registry, binder), and the runtime services
(Autopilot, contract monitoring, rescheduling), then manages
applications through their whole lifecycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..apps.qr import QrBenchmark, QrRun
from ..binder.binder import BINDER_PACKAGE, BindReport, DistributedBinder
from ..cop.cop import CompilationPackage, ConfigurableObjectProgram
from ..scheduler.executor import ExecutionTrace, WorkflowExecutor
from ..scheduler.scheduler import GradsWorkflowScheduler, SchedulingResult
from ..scheduler.workflow import Workflow
from ..sim.events import Event
from ..contracts.contract import PerformanceContract
from ..contracts.monitor import ContractMonitor
from ..gis.directory import GridInformationService
from ..gis.software import SoftwarePackage, SoftwareRegistry
from ..microgrid.dml import Grid
from ..nws.service import NetworkWeatherService
from ..rescheduling.rescheduler import Rescheduler
from ..rescheduling.rss import RuntimeSupportSystem
from ..rescheduling.srs import SRSLibrary
from ..sim.kernel import Simulator

__all__ = ["GradsEnvironment", "DEFAULT_PACKAGES", "WorkflowRun"]

#: software preinstalled across the testbeds (as on the real MacroGrid)
DEFAULT_PACKAGES = (BINDER_PACKAGE, "mpi", "scalapack", "eman", "autopilot")

@dataclass
class WorkflowRun:
    """Everything one end-to-end workflow execution produced."""

    scheduling: SchedulingResult
    bind: BindReport
    trace: ExecutionTrace

    @property
    def measured_makespan(self) -> float:
        return self.trace.makespan


class GradsEnvironment:
    """One fully wired GrADS deployment over a virtual grid."""

    def __init__(self, sim: Simulator, grid: Grid,
                 submission_host: Optional[str] = None,
                 deploy_network_sensors: bool = False,
                 packages: Sequence[str] = DEFAULT_PACKAGES) -> None:
        self.sim = sim
        self.grid = grid
        all_hosts = grid.all_hosts()
        if not all_hosts:
            raise ValueError("grid has no hosts")
        self.submission_host = submission_host or all_hosts[0].name

        self.gis = GridInformationService()
        self.gis.register_grid(grid)
        self.nws = NetworkWeatherService(
            sim, grid, deploy_network_sensors=deploy_network_sensors)
        self.software = SoftwareRegistry()
        names = [h.name for h in all_hosts]
        for package in packages:
            self.software.install_everywhere(SoftwarePackage(name=package),
                                             names)
        self.binder = DistributedBinder(sim, grid.topology, self.gis,
                                        self.software,
                                        package_source=self.submission_host)

    # -- managed QR (the §4.1 pipeline) -----------------------------------------
    def managed_qr(self, benchmark: QrBenchmark,
                   initial_hosts: Sequence[str],
                   rescheduler_mode: str = "default",
                   worst_case_migration_seconds: Optional[float] = 900.0,
                   checkpoint_every: Optional[int] = None,
                   stable_storage: bool = False,
                   max_restart_attempts: int = 8,
                   retry_backoff_seconds: float = 5.0,
                   migration_timeout_seconds: Optional[float] = None,
                   blacklist_seconds: Optional[float] = None,
                   ) -> tuple:
        """Wire up a QR run with contract monitoring and rescheduling.

        Returns ``(run, monitor, rescheduler)``; call ``run.start()``
        and drive the simulator to execute.

        The last four knobs configure the failure-recovery machinery:
        bounded retry-with-backoff in the run's restart path, and the
        rescheduler's migration timeout / target blacklisting.
        """
        rss = RuntimeSupportSystem(self.sim, home_host=self.submission_host)
        stable = (self.gis.host(self.submission_host)
                  if stable_storage else None)
        srs = SRSLibrary(self.sim, self.grid.topology, rss,
                         stable_host=stable)
        # The prediction is renegotiated at launch; the contract keeps
        # its default 1.5/0.5 limits and the monitor averages 3 steps.
        contract = PerformanceContract(predicted_fn=lambda step: 1.0)
        monitor = ContractMonitor(self.sim, contract, window=3)
        run = QrRun(self.sim, self.grid, self.gis, self.nws, self.binder,
                    rss, srs, benchmark, initial_hosts, monitor=monitor,
                    checkpoint_every=checkpoint_every,
                    max_restart_attempts=max_restart_attempts,
                    retry_backoff_seconds=retry_backoff_seconds)
        rescheduler = Rescheduler(
            self.sim, self.gis, self.nws, mode=rescheduler_mode,
            worst_case_migration_seconds=worst_case_migration_seconds,
            migration_timeout_seconds=migration_timeout_seconds,
            blacklist_seconds=blacklist_seconds)
        rescheduler.manage(run)
        monitor.rescheduler = rescheduler.request_handler(run)
        return run, monitor, rescheduler

    # -- managed workflows (the §3.3 pipeline) ------------------------------------
    def run_workflow(self, workflow: Workflow,
                     data_sources: Optional[Dict[str, List[str]]] = None,
                     required_packages: Sequence[str] = ("mpi",),
                     ) -> Event:
        """Run the full §3.3 cycle for a workflow application:
        schedule (min-min/max-min/sufferage, best makespan), *bind* the
        chosen resources via the distributed binder (shipping the IR,
        instrumenting, compiling at each — possibly heterogeneous —
        target), then execute the schedule on the grid.

        Returns a process-event whose value is a :class:`WorkflowRun`.
        """
        scheduler = GradsWorkflowScheduler(self.gis, self.nws)
        executor = WorkflowExecutor(self.sim, self.grid.topology, self.gis)

        def pipeline():
            result = scheduler.schedule(workflow, data_sources=data_sources)
            hosts = sorted({p.resource
                            for p in result.best.placements.values()})
            cop = ConfigurableObjectProgram(
                name=workflow.name,
                package=CompilationPackage(
                    required_packages=tuple(required_packages)),
            )
            bind_report = yield self.binder.bind(cop, hosts)
            trace = yield executor.execute(workflow, result.best)
            return WorkflowRun(scheduling=result, bind=bind_report,
                               trace=trace)

        return self.sim.process(pipeline(), name=f"wfrun:{workflow.name}")
